/**
 * @file
 * The accept loop and reader-thread registry both daemons share
 * (serve/server.hh, dist/workerd.hh).  Each accepted connection gets
 * one reader thread, which marks itself done as it exits; the accept
 * loop joins done readers on its next tick, so a daemon holds a thread
 * (and a stack mapping) per live connection, not per connection ever
 * served.  A drain waits for the readers, wakes the stragglers with
 * shutdown(2), and joins them all.
 */

#ifndef CSCHED_SUPPORT_CONNECTION_READERS_HH
#define CSCHED_SUPPORT_CONNECTION_READERS_HH

#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
#include <mutex>
#include <thread>

namespace csched {

class ConnectionReaders
{
  public:
    /**
     * Called on the accept thread with each accepted fd.  Returns the
     * reader's body, which keeps the fd open until it returns, or an
     * empty function after refusing (and closing) the fd.
     */
    using Open = std::function<std::function<void()>(int fd)>;

    /** Joins every reader. */
    ~ConnectionReaders() { reap(/*all=*/true); }

    /**
     * Accept on @p listen_fd, starting a reader per body @p open
     * returns, until @p stopping() is true.  Done readers are joined
     * every tick; a failed accept (EMFILE fails again at once) is
     * warned about and waited out for a tick, not retried hot.
     */
    void acceptUntil(int listen_fd, const std::function<bool()> &stopping,
                     const Open &open);

    /** True once every reader is done, or false after @p timeout. */
    bool waitAllDone(std::chrono::milliseconds timeout);

    /** shutdown(2) each running reader's fd with @p how (SHUT_RD...). */
    void shutdownLive(int how);

    void joinAll() { reap(/*all=*/true); }

  private:
    struct Reader
    {
        explicit Reader(int fd) : fd(fd) {}
        int fd;
        std::thread thread;
        bool done = false;  ///< set by the reader as it exits
    };

    /** Join and drop the done readers, or every reader if @p all. */
    void reap(bool all);

    std::mutex mutex_;
    std::condition_variable readerExited_;  ///< waits on mutex_
    std::list<Reader> readers_;             ///< guarded by mutex_
};

} // namespace csched

#endif // CSCHED_SUPPORT_CONNECTION_READERS_HH
