/**
 * @file
 * A traced replica of ConvergentScheduler::schedule built from public
 * calls only: the PreferenceMatrix constructor, parsePassSequence,
 * and per pass the rollback snapshot (copy-assign), Pass::run, the
 * invariant guard (checkWeightInvariants, normalizeAll), and the
 * preferredClusters diff; then assignment extraction, the priority
 * function and ListScheduler::run.
 *
 * Each phase is timed with one lap clock, so the phases partition the
 * replica's wall time exactly (integer nanoseconds).  The replica is
 * only trusted while it reproduces the library: callers compare its
 * assignment and makespan with an untraced schedule() of the same
 * graph, and its phase sum with the untraced wall time (coverage).
 * When the library's driver loop changes, those checks flag the trace
 * as stale.
 */

#ifndef PERFBENCH_TRACED_CONVERGENT_HH
#define PERFBENCH_TRACED_CONVERGENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convergent/pass.hh"
#include "ir/graph.hh"
#include "machine/machine.hh"
#include "sched/schedule.hh"

namespace perfbench {

/** Phases of one traced run, in nanoseconds. */
struct ConvergentPhases
{
    int64_t matrixCtor = 0;  ///< constructor + dead-cluster masking
    int64_t snapshot = 0;    ///< initial copy + per-pass copy-assign
    int64_t guard = 0;       ///< checkWeightInvariants + heal
    int64_t prefDiff = 0;    ///< preferredClusters + changed count
    int64_t extract = 0;     ///< assignment + preferred times
    int64_t listSched = 0;   ///< priority function + ListScheduler
    /** Pass::run bodies by Table-1 name (summed over repeats). */
    std::map<std::string, int64_t> pass;

    int64_t passTotal() const;
    /** Every convergent.* phase: ctor through extraction. */
    int64_t engineTotal() const;
};

/** Everything one traced run produces. */
struct TracedRun
{
    std::vector<int> assignment;
    csched::Schedule schedule{0, 1};
    ConvergentPhases phases;
    /** Lap-clock wall time from matrix construction to list end. */
    int64_t wallNs = 0;
    int skippedPasses = 0;
    /** N * T * C * 8: bytes of the dense weight arena. */
    double matrixBytes = 0.0;
    /** Feasible-window slots / dense slots after the last pass. */
    double windowFill = 0.0;
};

/** The replica, configured like ConvergentScheduler::forMachine. */
class TracedConvergent
{
  public:
    explicit TracedConvergent(const csched::MachineModel &machine);

    TracedRun run(const csched::DependenceGraph &graph) const;

    /** Pass names in pipeline order. */
    std::vector<std::string> passNames() const;

  private:
    const csched::MachineModel &machine_;
    std::vector<std::unique_ptr<csched::Pass>> passes_;
    csched::PassParams params_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_CONVERGENT_HH
