/**
 * @file
 * The batch experiment runner: expands a (workload x machine x
 * algorithm) grid into independent jobs and executes them on a
 * fixed-size thread pool.  This is the substrate behind csched_bench
 * and the per-figure bench binaries -- the paper's Section-5
 * evaluation grid as a parallel job pool.
 *
 * Fault model: the grid always completes.  A job that fails is
 * isolated -- its result records the outcome and diagnostic while
 * every healthy cell is salvaged -- and the report's summary says how
 * the run went overall.  Callers decide what a failure means (the
 * drivers exit non-zero unless --keep-going).
 *
 * Determinism: each job is self-contained (see job.hh) and writes its
 * result into a pre-assigned slot of the result vector, so the report
 * -- including its order, per-job statuses, attempt counts, and
 * diagnostics -- is bit-identical for any thread count.
 */

#ifndef CSCHED_RUNNER_GRID_RUNNER_HH
#define CSCHED_RUNNER_GRID_RUNNER_HH

#include <string>
#include <vector>

#include "runner/job.hh"

namespace csched {

struct DistOptions;

/** Declarative description of a whole experiment grid. */
struct GridSpec
{
    std::vector<std::string> workloads;
    std::vector<std::string> machines;   ///< validated machine specs
    std::vector<AlgorithmSpec> algorithms;
    /** Worker threads; 1 = serial, 0 = hardware concurrency. */
    int jobs = 1;
    /** Run the one-cluster normalisation for each (workload, machine). */
    bool computeSpeedup = true;
    /** Per-attempt deadline per job in milliseconds; 0 = none. */
    int deadlineMs = 0;
    /** Bounded retries for failed/timed-out jobs. */
    int retries = 0;
    /** Armed fault-injection plan; nullptr = none (borrowed). */
    const FaultPlan *faults = nullptr;
    /**
     * Keep each in-process job's Schedule in its JobResult (see
     * JobResult::schedule).  Off by default: a report would otherwise
     * hold every schedule of the grid until it is destroyed.
     */
    bool keepSchedules = false;
    /**
     * Path of the append-only job journal; empty = no journal.  With
     * a journal, every terminal job outcome is durably recorded the
     * moment it completes (see runner/journal.hh).
     */
    std::string journalPath;
    /**
     * Resume from an existing journal: journaled jobs are skipped and
     * their recorded outcomes replayed into their pre-assigned result
     * slots, so the final report is byte-identical to an
     * uninterrupted run.  Requires journalPath.
     */
    bool resume = false;
    /**
     * Run every job inside a forked worker process (runner/worker.hh)
     * so a crash, hang, or memory runaway is contained as that job's
     * outcome instead of taking the grid down.  Pure packaging: the
     * deterministic report layer is byte-identical with or without
     * isolation (and gridFingerprint() excludes this flag, so a
     * journal written either way resumes under the other).
     */
    bool isolate = false;
    /**
     * RLIMIT_AS cap per isolated worker, in megabytes; 0 = unlimited.
     * Only meaningful with isolate.
     */
    int memLimitMb = 0;
    /**
     * Remote worker endpoints ("host:port" each).  When non-empty the
     * grid's jobs execute on a fleet of csched_workerd daemons through
     * a RemoteWorkerPool (dist/remote_pool.hh) instead of in-process;
     * each daemon contains its jobs exactly as --isolate would, so --
     * like isolate -- this is pure packaging: the deterministic report
     * layer is byte-identical at any host count, gridFingerprint()
     * excludes it, and a journal written in any mode resumes under any
     * other.  Mutually exclusive with isolate.
     */
    std::vector<std::string> hosts;
    /** Dist-client tuning; nullptr = defaults (borrowed). */
    const DistOptions *dist = nullptr;
};

/** Outcome tally of one grid run. */
struct GridSummary
{
    int total = 0;
    int ok = 0;       ///< includes retried-then-ok jobs
    int failed = 0;
    int timeout = 0;
    int retried = 0;  ///< jobs that succeeded only after retrying
    /** Jobs stopped by a shutdown request (0 in a complete run). */
    int interrupted = 0;
};

/** All grid results plus end-to-end wall-clock. */
struct GridReport
{
    std::vector<JobResult> results;  ///< grid order: w-major, a-minor
    GridSummary summary;
    /** True when a shutdown request cut the run short (partial). */
    bool interrupted = false;
    /** Jobs replayed from the journal instead of executed (resume). */
    int replayed = 0;
    int threads = 1;                 ///< pool size actually used
    double wallSeconds = 0.0;

    /** True when every job (after retries) produced a result. */
    bool allOk() const
    {
        return summary.failed == 0 && summary.timeout == 0 &&
               summary.interrupted == 0;
    }
};

/**
 * Expand @p grid into jobs in deterministic (workload, machine,
 * algorithm) lexicographic-by-index order.
 */
std::vector<JobSpec> expandGrid(const GridSpec &grid);

/**
 * Validate every workload, machine, and algorithm of @p grid and, on
 * a resume, that its journal was written for this grid.  Returns false
 * and fills @p error on the first invalid entry.
 */
bool validateGrid(const GridSpec &grid, std::string *error);

/**
 * Run the whole grid and always return a complete report: failed
 * cells carry their outcome, healthy cells their measurements.
 * Fatal only on an invalid grid (programmer error; validate first)
 * or an unusable journal.
 *
 * Durability: with grid.journalPath set, each terminal outcome is
 * appended to the journal as it completes; with grid.resume the
 * journaled jobs are replayed instead of re-run.  A shutdown request
 * (SIGINT/SIGTERM via runner/shutdown.hh, or the `runner.interrupt`
 * fault point) drains in-flight jobs, marks the rest `interrupted`,
 * and returns a partial report with report.interrupted set -- the
 * journal plus --resume completes it later, byte-identically.
 */
GridReport runGrid(const GridSpec &grid);

} // namespace csched

#endif // CSCHED_RUNNER_GRID_RUNNER_HH
