#include "support/socket.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace csched {

namespace {

/** Fill a sockaddr_un; fails when @p path exceeds sun_path. */
Status
makeAddress(const std::string &path, sockaddr_un *addr)
{
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    if (path.empty())
        return Status::invalidSpec("socket path is empty");
    if (path.size() >= sizeof(addr->sun_path))
        return Status::invalidSpec(
            "socket path '" + path + "' exceeds the " +
            std::to_string(sizeof(addr->sun_path) - 1) +
            "-byte sun_path limit");
    std::memcpy(addr->sun_path, path.data(), path.size());
    return Status();
}

} // namespace

StatusOr<int>
listenUnix(const std::string &path, int backlog)
{
    sockaddr_un addr;
    const Status named = makeAddress(path, &addr);
    if (!named.ok())
        return named;

    // A stale *socket* file from a previous daemon run is removed; any
    // other file type at the path is someone else's data.
    struct stat st;
    if (::lstat(path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode))
            return Status::invalidSpec("'" + path +
                                       "' exists and is not a socket");
        ::unlink(path.c_str());
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::internal(std::string("socket: ") +
                                std::strerror(errno));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const Status status = Status::internal(
            "bind '" + path + "': " + std::strerror(errno));
        ::close(fd);
        return status;
    }
    if (::listen(fd, backlog) != 0) {
        const Status status = Status::internal(
            "listen '" + path + "': " + std::strerror(errno));
        ::close(fd);
        ::unlink(path.c_str());
        return status;
    }
    return fd;
}

StatusOr<int>
acceptClient(int listen_fd, int timeout_ms)
{
    struct pollfd probe = {listen_fd, POLLIN, 0};
    for (;;) {
        const int ready = ::poll(&probe, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return Status::internal(std::string("poll: ") +
                                    std::strerror(errno));
        }
        if (ready == 0)
            return Status::timedOut("no client within the accept "
                                    "budget");
        break;
    }
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0)
            return fd;
        if (errno == EINTR)
            continue;
        // The client that woke the poll may already be gone; that is
        // an idle tick, not an accept-loop failure.
        if (errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            return Status::timedOut("client vanished before accept");
        return Status::internal(std::string("accept: ") +
                                std::strerror(errno));
    }
}

StatusOr<int>
connectUnix(const std::string &path, int timeout_ms)
{
    sockaddr_un addr;
    const Status named = makeAddress(path, &addr);
    if (!named.ok())
        return named;

    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(std::max(0, timeout_ms));
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return Status::internal(std::string("socket: ") +
                                    std::strerror(errno));
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        const int why = errno;
        ::close(fd);
        // ENOENT/ECONNREFUSED: the daemon is still starting (or its
        // backlog is momentarily full); retry inside the budget.
        if ((why == ENOENT || why == ECONNREFUSED) &&
            Clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        return Status::internal("connect '" + path +
                                "': " + std::strerror(why));
    }
}

namespace {

/** Fill a sockaddr_in from a numeric IPv4 address. */
Status
makeTcpAddress(const std::string &host, uint16_t port,
               sockaddr_in *addr)
{
    std::memset(addr, 0, sizeof(*addr));
    addr->sin_family = AF_INET;
    addr->sin_port = htons(port);
    if (host.empty())
        return Status::invalidSpec("TCP host is empty");
    if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1)
        return Status::invalidSpec(
            "'" + host + "' is not a numeric IPv4 address");
    return Status();
}

} // namespace

void
setTcpNoDelay(int fd)
{
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one));
}

StatusOr<int>
listenTcp(const std::string &host, uint16_t port, int backlog)
{
    sockaddr_in addr;
    const Status named = makeTcpAddress(host, port, &addr);
    if (!named.ok())
        return named;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::internal(std::string("socket: ") +
                                std::strerror(errno));
    // A restarting daemon must be able to rebind its port while the
    // previous incarnation's connections sit in TIME_WAIT.
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const Status status = Status::internal(
            "bind " + host + ":" + std::to_string(port) + ": " +
            std::strerror(errno));
        ::close(fd);
        return status;
    }
    if (::listen(fd, backlog) != 0) {
        const Status status = Status::internal(
            "listen " + host + ":" + std::to_string(port) + ": " +
            std::strerror(errno));
        ::close(fd);
        return status;
    }
    return fd;
}

StatusOr<uint16_t>
boundTcpPort(int listen_fd)
{
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return Status::internal(std::string("getsockname: ") +
                                std::strerror(errno));
    return static_cast<uint16_t>(ntohs(addr.sin_port));
}

StatusOr<int>
connectTcp(const std::string &host, uint16_t port, int timeout_ms)
{
    sockaddr_in addr;
    const Status named = makeTcpAddress(host, port, &addr);
    if (!named.ok())
        return named;

    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(std::max(0, timeout_ms));
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return Status::internal(std::string("socket: ") +
                                    std::strerror(errno));
        // Non-blocking connect so the TCP handshake itself honours
        // the caller's budget: a partitioned host must come back as a
        // Timeout status, not a minutes-long kernel SYN retry stall.
        const int flags = ::fcntl(fd, F_GETFL, 0);
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

        int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr));
        int why = rc == 0 ? 0 : errno;
        while (rc != 0 && why == EINTR) {
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr));
            why = rc == 0 ? 0 : errno;
            if (why == EISCONN) {
                rc = 0;
                why = 0;
            }
        }
        if (rc != 0 && why == EINPROGRESS) {
            // Wait for the handshake within what is left of the budget.
            for (;;) {
                const auto left =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(deadline -
                                                   Clock::now())
                        .count();
                if (left <= 0) {
                    ::close(fd);
                    return Status::timedOut(
                        "connect " + host + ":" +
                        std::to_string(port) + ": no handshake within " +
                        std::to_string(timeout_ms) + " ms");
                }
                struct pollfd probe = {fd, POLLOUT, 0};
                const int ready = ::poll(
                    &probe, 1,
                    static_cast<int>(std::min<long long>(left, 100)));
                if (ready < 0 && errno != EINTR) {
                    const Status status = Status::internal(
                        std::string("poll: ") + std::strerror(errno));
                    ::close(fd);
                    return status;
                }
                if (ready > 0)
                    break;
            }
            int soerr = 0;
            socklen_t len = sizeof(soerr);
            if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) !=
                0)
                soerr = errno;
            rc = soerr == 0 ? 0 : -1;
            why = soerr;
        }
        if (rc == 0) {
            (void)::fcntl(fd, F_SETFL, flags);
            setTcpNoDelay(fd);
            return fd;
        }
        ::close(fd);
        // ECONNREFUSED: the daemon is still binding (or its backlog is
        // momentarily full); retry inside the budget.
        if (why == ECONNREFUSED && Clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        if (Clock::now() >= deadline &&
            (why == ECONNREFUSED || why == ETIMEDOUT ||
             why == EHOSTUNREACH || why == ENETUNREACH))
            return Status::timedOut("connect " + host + ":" +
                                    std::to_string(port) + ": " +
                                    std::strerror(why));
        return Status::internal("connect " + host + ":" +
                                std::to_string(port) + ": " +
                                std::strerror(why));
    }
}

Status
parseHostPort(const std::string &endpoint, std::string *host,
              uint16_t *port)
{
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0)
        return Status::invalidSpec("'" + endpoint +
                                   "' is not host:port");
    const std::string port_text = endpoint.substr(colon + 1);
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos)
        return Status::invalidSpec("'" + endpoint +
                                   "': port must be numeric");
    const long value = std::strtol(port_text.c_str(), nullptr, 10);
    if (value < 1 || value > 65535)
        return Status::invalidSpec("'" + endpoint +
                                   "': port must be in 1..65535");
    *host = endpoint.substr(0, colon);
    *port = static_cast<uint16_t>(value);
    return Status();
}

void
setSendTimeout(int fd, int ms)
{
    if (ms <= 0)
        return;
    struct timeval tv;
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

} // namespace csched
