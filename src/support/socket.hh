/**
 * @file
 * Stream-socket helpers shared by the scheduler-as-a-service daemon
 * (serve/server.hh) and the distributed worker backend
 * (dist/remote_pool.hh, dist/workerd.hh): UNIX-domain endpoints for
 * same-host daemons, TCP endpoints for remote worker fleets.
 *
 * Thin, Status-returning wrappers over the POSIX calls: bind/listen
 * with stale-socket cleanup, poll-bounded accept (so a daemon's
 * accept loop can wake up and notice a drain request), connect with a
 * bounded wait (EINTR-retried throughout), and send/receive-timeout
 * knobs so one stuck peer cannot park a thread in read()/write()
 * forever.  TCP listeners take SO_REUSEADDR (a restarting daemon must
 * not trip over its own TIME_WAIT sockets) and connections take
 * TCP_NODELAY (frames are small request/reply units; Nagle would add
 * round-trip latency to every dispatch).  Stream payloads on top of
 * these fds use the same 4-byte LE length-prefixed frame codec as the
 * worker pipes (support/subprocess.hh) -- with a *smaller* frame cap,
 * because socket peers are less trusted than our own forked workers.
 */

#ifndef CSCHED_SUPPORT_SOCKET_HH
#define CSCHED_SUPPORT_SOCKET_HH

#include <cstdint>
#include <string>

#include "support/status.hh"

namespace csched {

/**
 * Create, bind, and listen on a UNIX-domain stream socket at @p path.
 * An existing socket file at @p path is unlinked first (a daemon
 * restarting over its own stale socket), a non-socket file is not
 * touched (refuses with InvalidSpec).  Returns the listening fd.
 */
StatusOr<int> listenUnix(const std::string &path, int backlog = 64);

/**
 * Accept one client from @p listen_fd, waiting at most @p timeout_ms
 * (0 polls once; < 0 blocks).  Returns the connected fd, a Timeout
 * status when nothing arrived in the budget (the normal idle case --
 * callers poll their drain flags and try again), or an Internal
 * status for real accept errors.
 */
StatusOr<int> acceptClient(int listen_fd, int timeout_ms);

/**
 * Connect to the UNIX-domain socket at @p path, retrying connection
 * refusal for up to @p timeout_ms (a client racing a daemon that is
 * still binding).  Returns the connected fd.
 */
StatusOr<int> connectUnix(const std::string &path, int timeout_ms);

/**
 * Create, bind, and listen on a TCP stream socket at @p host:@p port
 * with SO_REUSEADDR.  @p port 0 binds an ephemeral port -- read the
 * actual one back with boundTcpPort() (how tests and localhost CI
 * fleets avoid port collisions).  @p host must be a numeric address
 * ("127.0.0.1", "0.0.0.0"); no resolver, so daemon startup cannot
 * block on DNS.  Returns the listening fd.
 */
StatusOr<int> listenTcp(const std::string &host, uint16_t port,
                        int backlog = 64);

/** The local port @p listen_fd is bound to (after listenTcp). */
StatusOr<uint16_t> boundTcpPort(int listen_fd);

/**
 * Connect to @p host:@p port, retrying connection refusal for up to
 * @p timeout_ms (a client racing a daemon that is still binding) and
 * bounding the TCP handshake itself by the same budget (non-blocking
 * connect + poll, EINTR-retried).  The connected fd comes back with
 * TCP_NODELAY set.  A budget that expires is a Timeout status;
 * malformed addresses are InvalidSpec; anything else Internal.
 */
StatusOr<int> connectTcp(const std::string &host, uint16_t port,
                         int timeout_ms);

/**
 * Split "host:port" into its parts; fails with InvalidSpec on a
 * missing/empty host, a missing colon, or a port outside 1..65535.
 * This is the spelling `--hosts` and csched_load accept.
 */
Status parseHostPort(const std::string &endpoint, std::string *host,
                     uint16_t *port);

/**
 * Bound the time a blocking write on @p fd may stall on a peer that
 * stopped reading (SO_SNDTIMEO).  A write that exceeds it fails with
 * EAGAIN, which frame writers surface as a Status -- a daemon's
 * defence against slow-client head-of-line blocking.
 */
void setSendTimeout(int fd, int ms);

/**
 * Disable Nagle on a TCP @p fd.  connectTcp() already does this for
 * outbound connections; servers must do it for *accepted* fds too,
 * or successive small frames (a daemon streaming result frames
 * back-to-back) stall ~40 ms each on the Nagle/delayed-ACK
 * interaction.  A no-op on non-TCP fds.
 */
void setTcpNoDelay(int fd);

} // namespace csched

#endif // CSCHED_SUPPORT_SOCKET_HH
