/**
 * @file
 * Common interface for complete scheduling algorithms (assignment plus
 * scheduling), implemented by the convergent scheduler adapter and by
 * every baseline (UAS, PCC, the Rawcc partitioner, single-cluster).
 * The evaluation harness iterates algorithms through this interface.
 *
 * run() returns a ScheduleResult: the schedule itself plus whatever
 * introspection the algorithm produces along the way (the convergent
 * scheduler's per-pass convergence trace and wall-clock timings; empty
 * for the one-shot baselines).  Callers that only want the schedule
 * use the schedule() convenience wrapper.
 */

#ifndef CSCHED_SCHED_ALGORITHM_HH
#define CSCHED_SCHED_ALGORITHM_HH

#include <string>
#include <utility>
#include <vector>

#include "ir/graph.hh"
#include "sched/schedule.hh"

namespace csched {

/**
 * Record of one pass application inside a pass-based algorithm: the
 * spatial-convergence measurement behind the paper's Figures 7 and 9,
 * plus the pass's wall-clock cost (the data behind Figure 10's
 * compile-time decomposition).
 */
struct PassStep
{
    std::string pass;
    /** Fraction of instructions whose preferred cluster changed. */
    double fractionChanged = 0.0;
    /** True when the pass only modifies temporal preferences. */
    bool temporalOnly = false;
    /**
     * Wall-clock seconds spent inside the pass body; the invariant
     * guard, any rebuild after a skipped pass and the convergence
     * count are not charged.
     */
    double seconds = 0.0;
    /**
     * True when the pass misbehaved (threw, or broke the weight
     * invariants beyond healing) and was skipped: the preference
     * matrix was rebuilt without it and the pipeline continued (see
     * ConvergentScheduler::schedule).
     */
    bool skipped = false;
};

/** Everything one algorithm run produces. */
struct ScheduleResult
{
    Schedule schedule;
    /** Per-pass trace; empty for algorithms without a pass pipeline. */
    std::vector<PassStep> trace;
};

/** A complete space-time scheduler bound to one machine. */
class SchedulingAlgorithm
{
  public:
    virtual ~SchedulingAlgorithm() = default;

    /** Display name used in result tables, e.g. "UAS". */
    virtual std::string name() const = 0;

    /** Produce a legal schedule of @p graph plus its run trace. */
    virtual ScheduleResult run(const DependenceGraph &graph) const = 0;

    /** Convenience for callers that only want the schedule. */
    Schedule schedule(const DependenceGraph &graph) const
    {
        return std::move(run(graph).schedule);
    }
};

} // namespace csched

#endif // CSCHED_SCHED_ALGORITHM_HH
