#include "support/connection_readers.hh"

#include <algorithm>

#include <sys/socket.h>

#include "support/logging.hh"
#include "support/socket.hh"

namespace csched {

namespace {

/** Idle tick of the accept loop, which also reaps finished readers. */
constexpr int kAcceptTickMs = 50;

} // namespace

void
ConnectionReaders::acceptUntil(int listen_fd,
                               const std::function<bool()> &stopping,
                               const Open &open)
{
    while (!stopping()) {
        reap(/*all=*/false);
        auto client = acceptClient(listen_fd, kAcceptTickMs);
        if (!client.ok()) {
            if (client.status().code() == ErrorCode::Timeout)
                continue;  // idle tick; re-check the stop flag
            // EMFILE fails again at once: wait out a tick, not spin.
            CSCHED_WARN("accept failed: ", client.status().toString());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kAcceptTickMs));
            continue;
        }
        std::function<void()> body = open(*client);
        if (!body)
            continue;
        std::lock_guard<std::mutex> lock(mutex_);
        const auto reader = readers_.emplace(readers_.end(), *client);
        // The body (and the fd it keeps open) outlives the done mark,
        // so shutdownLive() never touches a closed or reused fd.
        reader->thread = std::thread([this, reader, body] {
            body();
            {
                std::lock_guard<std::mutex> done_lock(mutex_);
                reader->done = true;
            }
            readerExited_.notify_all();
        });
    }
}

bool
ConnectionReaders::waitAllDone(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return readerExited_.wait_for(lock, timeout, [this] {
        return std::all_of(readers_.begin(), readers_.end(),
                           [](const Reader &reader) { return reader.done; });
    });
}

void
ConnectionReaders::shutdownLive(int how)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Reader &reader : readers_)
        if (!reader.done)
            (void)::shutdown(reader.fd, how);
}

void
ConnectionReaders::reap(bool all)
{
    std::list<Reader> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = readers_.begin(); it != readers_.end();) {
            const auto next = std::next(it);
            if (all || it->done)
                finished.splice(finished.end(), readers_, it);
            it = next;
        }
    }
    // Joined unlocked: a reader marks itself done under the lock.
    for (Reader &reader : finished)
        reader.thread.join();
}

} // namespace csched
