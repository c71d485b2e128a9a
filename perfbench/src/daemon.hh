/**
 * @file
 * Child daemons of the benchmark (csched_serve, csched_workerd).
 *
 * A Daemon forks and execs its binary with the parent-death signal
 * set, so a killed benchmark never leaves a daemon behind; its
 * destructor drains it (SIGTERM), escalates to SIGKILL after a grace
 * period, and always reaps it, so its peak RSS reaches
 * getrusage(RUSAGE_CHILDREN).
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace perfbench {

class Daemon
{
  public:
    /** Start @p argv (argv[0] is the binary path); throws on failure. */
    explicit Daemon(const std::vector<std::string> &argv);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Drain, escalate if needed, and reap.  Idempotent. */
    void stop();

  private:
    /** True while the child has not exited (reaps it once it has). */
    bool alive();

    pid_t pid_ = -1;
};

/**
 * Poll @p ready every 10 ms until it returns true or @p timeout_ms
 * passes; returns its last answer.
 */
template <typename Ready>
bool
waitUntil(Ready ready, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!ready()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
}

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
