/**
 * @file
 * The scheduler-as-a-service daemon: accepts schedule requests over a
 * UNIX-domain socket, dispatches them onto the pre-forked worker pool
 * (runner/worker.hh), and returns one structured response per request
 * -- under overload, under worker crashes, and through a drain.
 *
 * Architecture (one process, three kinds of threads):
 *
 *   accept loop (run(), caller's thread; support/connection_readers.hh)
 *     -> reader thread per connection: decode frames, apply admission
 *        control, reply to rejections inline.  A finished reader is
 *        joined by the accept loop on its next tick.
 *       -> bounded admission gate (the backpressure boundary): at most
 *          queueCapacity admitted requests wait for a dispatcher
 *         -> dispatcher ThreadPool (runner/thread_pool.hh): shed
 *            aged-out requests, consult the result cache /
 *            single-flight table, run jobs in isolated workers, reply
 *
 * Robustness properties, each with a dedicated mechanism:
 *
 *  - Admission control / backpressure: the gate is bounded; a full
 *    gate or a crash-looping pool refuses with a structured
 *    `overloaded` reply instead of buffering unbounded work.  Each
 *    request's deadline is fixed at admission, so time spent queued
 *    counts against it and dispatchers shed aged-out requests without
 *    spending a worker.
 *  - Worker supervision: jobs run on the WorkerPool executor, which
 *    respawns dead workers with the runner's deterministic jittered
 *    backoff within the retry budget.  A *crash-looping* pool
 *    (threshold consecutive worker deaths) trips a CrashLoopBreaker
 *    (support/backoff.hh) into a degraded window during which
 *    admissions are refused.  A job's own `interrupted` result is
 *    replied to like any result; it never drains the daemon.
 *  - Graceful drain: SIGINT/SIGTERM/SIGHUP (serve-style handlers,
 *    runner/shutdown.hh) stop admissions, let in-flight jobs finish up
 *    to the drain deadline, answer everything still queued with
 *    `interrupted`, then escalate to cooperative cancellation for
 *    stragglers.  Exit code is 128+signum for a signal-driven drain,
 *    0 for a programmatic stop().
 *  - Slow clients: replies are written under SO_SNDTIMEO, so a peer
 *    that stopped reading costs one bounded write, not a parked
 *    dispatcher.
 *
 * Fault points (deterministic, support/fault_injection.hh):
 * "serve.accept" in scope "serve/accept" (Fail closes the fresh
 * connection before reading -- simulated accept pressure; safe for the
 * exactly-one-reply proof because nothing was read), "serve.admit" and
 * "serve.reply" in per-connection scopes "serve/conn-<n>" (both always
 * produce a structured reply; see session.hh for the reply rewrite
 * rule).
 */

#ifndef CSCHED_SERVE_SERVER_HH
#define CSCHED_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "runner/thread_pool.hh"
#include "runner/worker.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/session.hh"
#include "support/backoff.hh"
#include "support/connection_readers.hh"
#include "support/counters.hh"
#include "support/fault_injection.hh"
#include "support/status.hh"

namespace csched {

/** Tunables of one daemon instance. */
struct ServeOptions
{
    std::string socketPath;
    int workers = 2;            ///< pre-forked worker processes
    int dispatchers = 2;        ///< dispatcher threads
    /** Admitted requests that may wait for a dispatcher; >= 1. */
    std::size_t queueCapacity = 64;
    std::size_t cacheCapacity = 128;  ///< 0 disables the result cache
    /** Deadline for requests that do not bring their own; 0 = none. */
    int defaultDeadlineMs = 10000;
    int retries = 1;            ///< per-request retry budget
    int memLimitMb = 0;         ///< worker RLIMIT_AS cap; 0 = none
    uint32_t maxFrameBytes = kServeMaxFrameBytes;
    int sendTimeoutMs = 2000;   ///< SO_SNDTIMEO per reply write
    int drainDeadlineMs = 2000; ///< in-flight grace before escalation
    /** Consecutive worker deaths that trip the degraded window. */
    int crashLoopThreshold = 3;
    int degradeCooldownMs = 1000;
    bool timings = true;        ///< include queueMs in replies
    bool verbose = false;       ///< lifecycle lines on stderr
    /** Armed fault plan; nullptr = none.  Borrowed, not owned. */
    const FaultPlan *faults = nullptr;
};

/** One admitted request waiting for a dispatcher. */
struct QueuedRequest
{
    /** Shared: the reply flushes even after the reader exited. */
    std::shared_ptr<Session> session;
    ServeRequest request;
    std::chrono::steady_clock::time_point admitted;
    /** Fixed at admission, so queue wait counts; max() = none. */
    std::chrono::steady_clock::time_point deadline;
};

/**
 * The serve daemon's monotonic counters, one entry each.  Expanded
 * (support/counters.hh) into ServeStats, Server's atomic twin and
 * Server::stats().
 */
#define CSCHED_SERVE_COUNTERS(X)                                        \
    X(connections)                                                      \
    X(acceptRejected)     /* serve.accept fault closures */             \
    X(requestsRead)       /* frames that decoded to requests */         \
    X(malformedFrames)                                                  \
    X(oversizedFrames)                                                  \
    X(invalidRequests)                                                  \
    X(admitted)                                                         \
    X(rejectedOverloaded)                                               \
    X(shedDeadline)       /* aged out in queue / follower wait */       \
    X(interruptedReplies)                                               \
    X(cacheHits)                                                        \
    X(coalesced)                                                        \
    X(jobsRun)                                                          \
    X(workerDeaths)       /* terminal worker-death results */           \
    X(healedRetries)      /* ok after >= 1 dead worker */               \
    X(degradeTrips)       /* crash-loop breaker trips */                \
    X(repliesSent)                                                      \
    X(replyWriteFailures)

/** Monotonic counters; a consistent-enough snapshot via stats(). */
struct ServeStats
{
    CSCHED_SERVE_COUNTERS(CSCHED_COUNTER_FIELD)
};

class Server
{
  public:
    explicit Server(ServeOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Fork the worker pool, bind the socket, start the dispatchers.
     * Call while the process is still single-threaded (the pool forks
     * here).  The listen socket is bound *after* the fork so workers
     * never inherit it.
     */
    Status start();

    /**
     * Serve until a drain is requested (signal with serve-style
     * handlers installed, or stop()), then drain and return the exit
     * code: 128+signum for a signal, 0 for stop().  Runs the accept
     * loop on the calling thread.
     */
    int run();

    /** Programmatic drain trigger (tests, --max-lifetime drivers). */
    void stop();

    ServeStats stats() const;
    const std::string &socketPath() const
    {
        return options_.socketPath;
    }

  private:
    void readerMain(std::shared_ptr<Session> session);
    /** The admission gate: hand @p item to a dispatcher, or refuse
     *  it as Interrupted (closed) or Overloaded (queueCapacity
     *  requests wait).  Never blocks. */
    Status admit(QueuedRequest item);
    void handle(QueuedRequest item);
    JobResult runLeader(const ServeRequest &request,
                        std::chrono::steady_clock::time_point deadline,
                        std::string *server_note);
    /** Crash-loop admission check; fills @p why when refusing. */
    bool degraded(std::string *why) const;
    void noteWorkerHealth(const JobResult &result);
    bool drainingNow() const;
    void sendReply(const std::shared_ptr<Session> &session,
                   const ServeResponse &response);
    int drainAndExit();

    ServeOptions options_;
    std::unique_ptr<WorkerPool> pool_;
    std::unique_ptr<ThreadPool> dispatchers_;
    ResultCache cache_;
    int listenFd_ = -1;
    bool started_ = false;
    bool finished_ = false;

    std::atomic<bool> stop_{false};

    std::mutex admissionMutex_;
    std::size_t waiting_ = 0;  ///< admitted, not yet started; guarded
    bool admissionsClosed_ = false;  ///< set by the drain; guarded

    ConnectionReaders readers_;
    uint64_t nextSessionId_ = 0;

    /** Crash-loop supervision: consecutive worker deaths trip it. */
    CrashLoopBreaker crashLoop_;
    /** Degraded-window end, steady-clock ms; atomic so admission
     *  checks it lock-free. */
    std::atomic<int64_t> degradedUntilMs_{0};

    struct Counters;
    std::unique_ptr<Counters> counters_;
};

} // namespace csched

#endif // CSCHED_SERVE_SERVER_HH
