/**
 * @file
 * The client half of distributed grid execution: a RemoteWorkerPool
 * dispatches grid jobs to a fleet of csched_workerd daemons
 * (dist/workerd.hh) over the csched-dist-v1 protocol
 * (dist/protocol.hh), and survives the transport.
 *
 * The robustness contract, and why reports stay byte-identical:
 *
 *  - Per-job leases.  A dispatched job holds a lease naming its
 *    outstanding dispatches.  A host that disconnects, times out, or
 *    is declared dead returns the lease, and the owning thread
 *    re-dispatches to a healthy host.  Transport-level losses consume
 *    NO job attempts and leave NO trace in the deterministic report
 *    layer -- only the job's own execution (on whichever host finally
 *    runs it) decides its outcome.  That is the whole byte-identity
 *    argument: execution is deterministic per spec, so *where* it
 *    runs is invisible.
 *  - Worker deaths on a host keep --isolate semantics: the daemon
 *    runs each job on its own WorkerPool, so a segfaulting job costs
 *    attempts and records WorkerCrashed exactly as it would locally.
 *  - Heartbeats + liveness deadlines.  A controller thread pings
 *    every connected host; a host silent past the liveness deadline
 *    is declared lost and its leases reassign.  Each host owns the
 *    reader thread of its current connection; the controller joins it
 *    before a reconnect starts the next one, and shutdown() joins the
 *    last.
 *  - Seeded jittered exponential reconnect backoff, a pure function
 *    of (endpoint, attempt) -- support/backoff's recipe, like grid
 *    retries.
 *  - Crash-loop quarantine: a per-host CrashLoopBreaker
 *    (support/backoff.hh) turns a threshold of consecutive connection
 *    losses into a deterministic-jittered cooldown, after which the
 *    host is re-admitted on probation.
 *  - Work stealing.  A lease in flight on a slow host past the steal
 *    threshold is speculatively re-dispatched to an idle host; the
 *    first result wins and stragglers are dropped by dispatch id.
 *  - Terminal loss.  Only when every host is lost or quarantined for
 *    longer than the dispatch budget does a job take the structured
 *    ErrorCode::HostLost outcome -- the analogue of WorkerCrashed one
 *    layer up.
 *
 * Placement follows the related-work framing the ROADMAP names:
 * dispatch greedily balances load across heterogeneous capacities
 * (the primal-dual/LP-rounding view of Murray, Khuller & Chao --
 * least-loaded is its greedy dual), with a (workload, machine)
 * affinity tie-break co-locating jobs that share memoized baselines
 * (the packing/placement-constraints view of Shafiee & Ghaderi).
 *
 * Deterministic network faults, hit client-side in the job's own
 * fault scope once per primary dispatch:
 *
 *   net.slow       (slow rule)  stall the dispatch path
 *   net.drop       (fail rule)  drop the chosen host's connection;
 *                               reconnect heals it
 *   net.partition  (fail rule)  drop it AND refuse reconnects for a
 *                               partition window
 *
 * plus `workerd.crash` on the daemon side (dist/workerd.hh).  All are
 * transport faults: with at least one healthy host, the report is
 * byte-identical to an unfaulted run.
 */

#ifndef CSCHED_DIST_REMOTE_POOL_HH
#define CSCHED_DIST_REMOTE_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hh"
#include "support/counters.hh"

namespace csched {

/** Tuning knobs for the dist client; defaults suit a LAN fleet. */
struct DistOptions
{
    /** Worker endpoints, "host:port" each. */
    std::vector<std::string> hosts;
    /** Budget for the initial connect to each host. */
    int connectTimeoutMs = 3000;
    /** Heartbeat ping period per connected host. */
    int heartbeatIntervalMs = 250;
    /** Silence longer than this declares the host lost. */
    int livenessTimeoutMs = 3000;
    /** Reconnect backoff: jittered exponential base and cap. */
    int reconnectBaseMs = 50;
    int reconnectCapMs = 2000;
    /** Consecutive connection losses that trip the quarantine. */
    int crashLoopThreshold = 3;
    /** Quarantine cooldown before a tripped host is re-admitted. */
    int quarantineCooldownMs = 2000;
    /** Simulated partition window for the net.partition point. */
    int partitionMs = 1500;
    /** In-flight longer than this invites a speculative steal. */
    int stealAfterMs = 2000;
    /** Transport re-dispatches per job before HostLost. */
    int dispatchAttempts = 25;
    /** Max wait for a healthy host per dispatch before HostLost. */
    int dispatchWaitMs = 15000;
    /** Bound on a blocking write to a stalled host. */
    int sendTimeoutMs = 2000;
    /** Per-frame size cap for untrusted peers. */
    uint32_t maxFrameBytes = kDistMaxFrameBytes;

    /**
     * Apply "key=value,key=value" overrides (the hidden --dist-opts
     * driver flag tests and CI use to shrink the timing knobs).  Keys
     * are the field names above in kebab-case, e.g.
     * "liveness-timeout-ms=500,steal-after-ms=200".  Unknown keys or
     * non-integer values fail with InvalidSpec.
     */
    static Status applyOverrides(DistOptions *options,
                                 const std::string &text);
};

/**
 * The --hosts client's health/observability counters, one entry
 * each.  Expanded (support/counters.hh) into DistStats,
 * RemoteWorkerPool's atomic twin and RemoteWorkerPool::stats().
 */
#define CSCHED_DIST_COUNTERS(X)                                         \
    X(dispatches)         /* job frames sent (incl. steals) */          \
    X(steals)             /* speculative re-dispatches */               \
    X(staleResults)       /* results that lost the race */              \
    X(hostLosses)         /* connections declared lost */               \
    X(reconnects)         /* successful (re)handshakes */               \
    X(quarantines)        /* crash-loop trips */                        \
    X(leaseReassignments) /* dispatches redone elsewhere */

/** Health/observability counters, snapshot via stats(). */
struct DistStats
{
    CSCHED_DIST_COUNTERS(CSCHED_COUNTER_FIELD)
};

/**
 * The --hosts executor: the connection manager + lease table.
 * Construct, start() once before the grid's thread pool exists, then
 * any number of threads may call run() concurrently.  Transport
 * losses reassign a lease transparently; the daemon's result, an
 * `interrupted` one included, is the job's result.
 */
class RemoteWorkerPool final : public JobExecutor
{
  public:
    explicit RemoteWorkerPool(DistOptions options);
    ~RemoteWorkerPool() override;

    /**
     * Connect the fleet: every endpoint is attempted within the
     * connect budget; hosts that are down keep reconnecting in the
     * background.  Fails only when *no* host answered -- one live
     * host is enough to run (slowly).
     */
    Status start();

    /** Close every connection and stop the controller. */
    void shutdown();

    DistStats stats() const;

  private:
    void execute(const JobSpec &spec, const JobPolicy &policy,
                 const BaselineMemo *baselines,
                 JobResult &result) override;

    struct Host;
    struct Lease;
    struct Counters;

    void controllerMain();
    void readerMain(std::shared_ptr<Host> host, int fd,
                    uint64_t generation);
    void connectionLost(Host &host, uint64_t generation,
                        const char *why, bool partitioned = false);
    void failHostLeasesLocked(Host &host);
    Host *pickHostLocked(const std::string &affinity_key);
    bool sendOnHostLocked(Host &host, const std::string &payload);
    void tryStealLocked();
    uint64_t nextDispatchId_ = 1;

    DistOptions options_;
    std::mutex mutex_;
    std::condition_variable stateChanged_;
    std::vector<std::shared_ptr<Host>> hosts_;
    std::map<uint64_t, Lease *> pending_;  ///< dispatch id -> lease
    std::thread controller_;
    bool started_ = false;
    bool stopping_ = false;
    std::unique_ptr<Counters> counters_;
};

} // namespace csched

#endif // CSCHED_DIST_REMOTE_POOL_HH
