/**
 * @file
 * The remote worker daemon: a local pre-forked WorkerPool
 * (runner/worker.hh) behind a TCP listener, executing grid jobs
 * dispatched by a RemoteWorkerPool (dist/remote_pool.hh) over the
 * csched-dist-v1 protocol (dist/protocol.hh).
 *
 * The daemon is a pure executor: it owns no grid state, no journal,
 * and no retry policy beyond what each job frame carries.  Every job
 * runs through the daemon's own WorkerPool (its run()), so a job that
 * segfaults, hangs, or OOMs on a remote host is contained as exactly
 * the per-cell outcome --isolate would have produced locally -- which
 * is what keeps dist-mode reports byte-identical to in-process runs.
 * A job's own `interrupted` result is sent back like any other; only
 * the client's grid drains on it, never the daemon.
 *
 * Topology: the accept loop and reader threads the serve daemon uses
 * too (support/connection_readers.hh: one reader per connection,
 * joined by the accept loop on its next tick after it finishes), and
 * a ThreadPool of one thread per worker process running the
 * dispatched jobs in arrival order.  Its size is the
 * capacity advertised in the welcome message, so clients self-limit.
 * Heartbeat pings are answered inline by the reader.
 *
 * Untrusted peers: a connection that sends garbage, an oversized
 * length prefix, or any frame that fails decodeDistMessage() is
 * dropped -- counted in the stats, never able to crash or wedge the
 * daemon.
 *
 * Shutdown: serve-style.  The first SIGINT/SIGTERM/SIGHUP stops
 * admissions and closes every connection (clients reassign the lost
 * leases -- that is the dist layer's healing path, so the drain does
 * not wait for stragglers), escalates in-flight jobs to cooperative
 * cancellation, reaps the pool, and exits 128+signum.  The
 * deterministic `workerd.crash` fault point (hit once per dispatched
 * job, scope "workerd") instead dies by SIGKILL -- the reproducible
 * stand-in for a daemon crash in tests and CI.
 */

#ifndef CSCHED_DIST_WORKERD_HH
#define CSCHED_DIST_WORKERD_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "dist/protocol.hh"
#include "support/connection_readers.hh"
#include "support/counters.hh"
#include "support/fault_injection.hh"

namespace csched {

class ThreadPool;
class WorkerPool;

/** Everything a workerd needs to start. */
struct WorkerdOptions
{
    /** Numeric address to bind; loopback by default. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see port()). */
    uint16_t port = 0;
    /**
     * When set, the bound port number is written here (atomically,
     * as one decimal line) after listen succeeds -- how shell
     * harnesses discover an ephemeral port.
     */
    std::string portFile;
    /** Worker processes to pre-fork; 0 = hardware concurrency. */
    int workers = 0;
    /** RLIMIT_AS per worker, in megabytes; 0 = unlimited. */
    int memLimitMb = 0;
    /** Bound on a blocking reply write to a stalled client. */
    int sendTimeoutMs = 5000;
    /** Per-frame size cap for untrusted peers. */
    uint32_t maxFrameBytes = kDistMaxFrameBytes;
    /** Armed fault plan (workerd.crash); borrowed, may be null. */
    const FaultPlan *faults = nullptr;
    bool verbose = false;
};

/**
 * The workerd's observability counters, one entry each.  Expanded
 * (support/counters.hh) into WorkerdStats, WorkerdServer's atomic
 * twin and WorkerdServer::stats().
 */
#define CSCHED_WORKERD_COUNTERS(X)                                      \
    X(connections)                                                      \
    X(handshakeFailures)                                                \
    X(malformedFrames)                                                  \
    X(oversizedFrames)                                                  \
    X(invalidMessages)                                                  \
    X(pings)                                                            \
    X(jobsRun)                                                          \
    X(resultsSent)                                                      \
    X(resultsDropped)     /* finished during/after the drain */

/** Observability counters, snapshot via WorkerdServer::stats(). */
struct WorkerdStats
{
    CSCHED_WORKERD_COUNTERS(CSCHED_COUNTER_FIELD)
};

/**
 * The daemon itself, usable in-process (tests, the bench harness
 * forks a child that runs one of these) or behind tools/csched_workerd.
 */
class WorkerdServer
{
  public:
    explicit WorkerdServer(WorkerdOptions options);
    ~WorkerdServer();

    WorkerdServer(const WorkerdServer &) = delete;
    WorkerdServer &operator=(const WorkerdServer &) = delete;

    /**
     * Pre-fork the worker pool (call while still single-threaded),
     * bind + listen, and write the port file.  On failure the daemon
     * is unusable and owns no resources.
     */
    Status start();

    /**
     * Serve until a drain (signal via runner/shutdown.hh serve-style
     * handlers, or stop()).  Returns the process exit code:
     * 128+signum after a signal, 0 after stop().
     */
    int run();

    /** Ask run() to drain and return (thread-safe). */
    void stop();

    /** The bound TCP port (after start()); 0 before. */
    uint16_t port() const { return boundPort_; }

    WorkerdStats stats() const;

  private:
    struct Connection;

    bool drainingNow() const;
    void readerMain(std::shared_ptr<Connection> connection);
    void jobMain(const std::shared_ptr<Connection> &connection,
                 uint64_t id, const WorkerJobFrame &frame);
    void hitCrashPoint();
    int drainAndExit();

    WorkerdOptions options_;
    std::unique_ptr<WorkerPool> pool_;
    std::unique_ptr<ThreadPool> jobs_;  ///< runs capacity_ jobs at once
    std::unique_ptr<FaultScope> crashScope_;  ///< guarded by crashMutex_
    std::mutex crashMutex_;
    int listenFd_ = -1;
    uint16_t boundPort_ = 0;
    int capacity_ = 0;
    bool started_ = false;
    bool finished_ = false;
    std::atomic<bool> stop_{false};

    ConnectionReaders readers_;

    /** The WorkerdStats fields in atomic form. */
    struct Counters
    {
        CSCHED_WORKERD_COUNTERS(CSCHED_COUNTER_ATOMIC)
    } counters_;
};

} // namespace csched

#endif // CSCHED_DIST_WORKERD_HH
