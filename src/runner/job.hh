/**
 * @file
 * The unit of work of the experiment grid: one (workload, machine,
 * algorithm) cell, the execution policy applied to it, and the
 * structured record one such run produces -- including its outcome,
 * because a job that fails (bad spec, checker rejection, deadline,
 * injected fault) is *recorded*, not allowed to kill the grid.
 *
 * A JobSpec is fully self-describing -- strings plus an AlgorithmSpec
 * -- so a job can be executed on any thread with no shared mutable
 * state: the worker parses its own machine, builds its own graph, and
 * constructs its own algorithm (whose RNG is seeded from the spec's
 * PassParams, a pure function of the spec).  Retries run inline on the
 * same worker and fault decisions depend only on the job's own
 * deterministic state, which is what keeps grid results -- statuses
 * included -- bit-identical regardless of thread count.
 */

#ifndef CSCHED_RUNNER_JOB_HH
#define CSCHED_RUNNER_JOB_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/experiment.hh"
#include "sched/algorithm.hh"
#include "support/status.hh"

namespace csched {

class FaultPlan;

/** One cell of the (workload x machine x algorithm) grid. */
struct JobSpec
{
    std::string workload;
    std::string machine;  ///< validated machine spec, e.g. "raw4x4"
    AlgorithmSpec algorithm;
    /** Also run the one-cluster normalisation to compute speedup. */
    bool computeSpeedup = true;
};

/** How a job ultimately ended. */
enum class JobOutcome {
    Ok,       ///< produced a verified schedule (possibly after retry)
    Failed,   ///< every attempt failed (spec, checker, fault, internal)
    Timeout,  ///< the final attempt exceeded the deadline
    /**
     * A shutdown request (signal or injected interrupt) stopped the
     * job before it reached a terminal outcome.  Unlike the other
     * non-ok outcomes this is not a verdict about the job: it is never
     * journaled, and a resumed run executes the job from scratch.
     */
    Interrupted,
};

/** Stable lower-case name, e.g. "timeout" (used in JSON). */
const char *jobOutcomeName(JobOutcome outcome);

/** Inverse of jobOutcomeName; nullopt for unknown names. */
std::optional<JobOutcome> parseJobOutcomeName(const std::string &name);

/**
 * The job's deterministic identity, "workload/machine/algorithm".
 * Doubles as the fault-scope key, the log context, and the journal
 * record key -- one spelling everywhere.
 */
std::string jobKey(const JobSpec &spec);

/** Execution policy shared by every job of a grid. */
struct JobPolicy
{
    /** Per-attempt deadline in milliseconds; 0 = none. */
    int deadlineMs = 0;
    /** Extra attempts for failed/timed-out jobs (bounded, inline). */
    int retries = 0;
    /** Armed fault plan; nullptr = none.  Borrowed, not owned. */
    const FaultPlan *faults = nullptr;
    /** Keep an in-process job's Schedule in JobResult::schedule. */
    bool keepSchedule = false;
};

/**
 * Memoized single-cluster baselines keyed by (workload, machine):
 * computed once per pair instead of once per job, and carrying a
 * Status so a failed baseline fails its dependents with a diagnosis
 * rather than a crash.
 */
struct BaselineEntry
{
    Status status;
    int makespan = 0;
};
using BaselineMemo =
    std::map<std::pair<std::string, std::string>, BaselineEntry>;

/** Structured result of one job (everything the paper's tables need). */
struct JobResult
{
    // Identity (echoed from the spec so a result is self-describing).
    std::string workload;
    std::string machine;
    std::string algorithm;      ///< AlgorithmSpec::text()
    std::string algorithmName;  ///< display name, e.g. "Convergent"

    // Outcome of the job's (possibly retried) execution.
    JobOutcome outcome = JobOutcome::Ok;
    /** Error class of the final failed attempt; Ok when the job is. */
    ErrorCode error = ErrorCode::Ok;
    /** Deterministic diagnostic text; empty when the job succeeded. */
    std::string diagnostic;
    /** Attempts consumed (1 = first try; > 1 and Ok = retried). */
    int attempts = 1;

    // Worker metadata, set only when the job ran under --isolate and
    // its worker process died (error is WorkerCrashed/WorkerKilled).
    // Deterministic for injected deaths, so they journal and replay
    // byte-identically like any other outcome.
    /** Signal that killed the worker; 0 when it exited normally. */
    int workerSignal = 0;
    /** Worker exit status for a nonzero-exit death; 0 otherwise. */
    int workerExitStatus = 0;

    // Deterministic measurements (valid only when ok()).
    int instructions = 0;
    int makespan = 0;
    int criticalPathLength = 0;
    /** One-cluster makespan; 0 when speedup was not requested. */
    int singleClusterMakespan = 0;
    /** makespan(1 cluster) / makespan; 0 when not requested. */
    double speedup = 0.0;
    /** Cluster per instruction (the spatial assignment); for online
     *  jobs, the committed region ids in timeline order instead. */
    std::vector<int> assignment;

    // Online measurements, set only for stream/policy cells (see
    // online/online_grid.hh); regions == 0 marks an offline job.
    /** Regions committed by the online run. */
    int regions = 0;
    /** Sum over regions of weight x completion cycle. */
    int64_t weightedCompletion = 0;
    /** Max over regions of completion - release. */
    int maxFlowTime = 0;
    /** Mean flow time (exact ratio of integers). */
    double meanFlowTime = 0.0;
    /** Regions that completed after their deadline. */
    int deadlineMisses = 0;
    /** Commits rolled back by preempt-and-recommit. */
    int preemptions = 0;
    /** Decisions that fell back to UAS on a budget expiry. */
    int fallbackDecisions = 0;

    // Wall-clock observability (excluded from deterministic output).
    double seconds = 0.0;  ///< scheduling time of the measured run
    /** Per-pass convergence + timing; empty for one-shot baselines. */
    std::vector<PassStep> trace;
    /**
     * The verified schedule, for inspecting an in-process run
     * (csched_cli --gantt/--placements/--pressure); set only under
     * JobPolicy::keepSchedule.  Never serialized, so empty for
     * isolated, remote and replayed results.
     */
    std::shared_ptr<const Schedule> schedule;

    bool ok() const { return outcome == JobOutcome::Ok; }
    bool retriedThenOk() const { return ok() && attempts > 1; }
};

/**
 * Execute one job under @p policy: every recoverable failure --
 * invalid spec, checker rejection, deadline, injected fault, escaped
 * exception -- becomes the job's outcome, never a process exit.
 * Retryable failures (anything but InvalidSpec) are re-attempted up to
 * policy.retries times.  @p baselines, when non-null, supplies the
 * memoized single-cluster makespans (grid use); otherwise the job
 * computes its own.
 */
JobResult runJob(const JobSpec &spec, const JobPolicy &policy = {},
                 const BaselineMemo *baselines = nullptr);

/**
 * Where a job runs: in this process (runJob's retry loop), in a
 * forked worker (WorkerPool, runner/worker.hh) or on a remote fleet
 * (RemoteWorkerPool, dist/remote_pool.hh).  A process picks one
 * executor and sends every job through run(); execution is
 * deterministic per spec, so the choice never shows in a result.
 */
class JobExecutor
{
  public:
    virtual ~JobExecutor() = default;
    JobExecutor(const JobExecutor &) = delete;
    JobExecutor &operator=(const JobExecutor &) = delete;

    /**
     * Run one job under @p policy inside the envelope every executor
     * shares: echo the spec's identity, bind the per-job FaultScope
     * and "job <key>" log context, and return `interrupted` with
     * attempts = 0 when a drain is pending.  Only the executor running
     * the job body here first hits `runner.interrupt`, so the point is
     * hit once per job.  runGrid alone drains on an `interrupted` one.
     */
    JobResult run(const JobSpec &spec, const JobPolicy &policy,
                  const BaselineMemo *baselines = nullptr);

  protected:
    JobExecutor() = default;

  private:
    /** Run the job into @p result, inside the envelope. */
    virtual void execute(const JobSpec &spec, const JobPolicy &policy,
                         const BaselineMemo *baselines,
                         JobResult &result) = 0;
    /** True only where the job body runs in this process. */
    virtual bool runsJobBody() const { return false; }
};

/**
 * Deterministic jittered exponential backoff before retry @p attempt
 * (2-based: the attempt about to run) of the job identified by
 * @p job_key: support/backoff's recipe with base 10 ms doubling per
 * attempt, capped at 200 ms, keyed by (job_key, attempt) -- so
 * recorded delays are part of the deterministic report layer and
 * identical at any --jobs value.
 */
int retryBackoffMs(const std::string &job_key, int attempt);

/**
 * Mark @p result as stopped by a shutdown request @p when ("before the
 * job started", ...): outcome and error `interrupted`, no worker death
 * recorded.  Such a result is never journaled; the job re-runs on
 * resume.
 */
void markInterrupted(JobResult &result, const char *when);

/**
 * Append the retry backoff delays a job slept, " [retry backoff ms:
 * D D]", to the diagnostic of a failed or timed-out @p result.
 */
void appendBackoffNote(JobResult &result, const std::vector<int> &delays);

} // namespace csched

#endif // CSCHED_RUNNER_JOB_HH
