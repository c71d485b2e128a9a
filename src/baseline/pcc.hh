/**
 * @file
 * PCC -- Partial Component Clustering (Desoli, HP Labs TR HPL-98-13),
 * the paper's second clustered-VLIW baseline.
 *
 * PCC first grows "partial components" bottom-up over the data
 * dependence graph, critical paths first, capping each component's
 * size at a threshold.  Components get an initial cluster assignment
 * based on load balancing and communication affinity, and the
 * assignment is then improved by iterative descent: components are
 * tentatively moved to other clusters and a move is kept whenever the
 * (fully modelled, preplacement-aware) schedule length improves.  The
 * repeated full schedule evaluations are what make PCC orders of
 * magnitude slower than UAS and convergent scheduling at large
 * instruction counts (the paper's Figure 10), while the descent makes
 * it competitive on quality for small units.
 *
 * As in the paper's evaluation, preplacement is honoured: a component
 * containing preplaced instructions is pinned to their home cluster,
 * and component growth never mixes two homes.
 */

#ifndef CSCHED_BASELINE_PCC_HH
#define CSCHED_BASELINE_PCC_HH

#include <vector>

#include "machine/machine.hh"
#include "sched/algorithm.hh"

namespace csched {

/** Partial-component clustering baseline. */
class PccScheduler : public SchedulingAlgorithm
{
  public:
    /**
     * The schedule-length estimator that guides the iterative
     * descent, as Desoli's TR uses an estimation algorithm rather
     * than a full scheduler: issue-width-limited list simulation per
     * cluster (no FU typing), a fixed one-hop communication cost per
     * cross-cluster data edge, and the remote-bank penalty for
     * preplaced memory operations placed off their home (the
     * preplacement extension the convergent-scheduling paper added).
     * Exposed for tests.
     */
    int estimate(const DependenceGraph &graph,
                 const std::vector<int> &assignment) const;

    explicit PccScheduler(const MachineModel &machine);

    std::string name() const override { return "PCC"; }
    ScheduleResult run(const DependenceGraph &graph) const override;

    /**
     * Component id per instruction (exposed for tests).  Ids are dense
     * in [0, numComponents).
     */
    std::vector<int> buildComponents(const DependenceGraph &graph) const;

    /** Component cap for @p n instructions: max(4, n / (4 * clusters)). */
    int effectiveCap(int n) const;

  private:
    const MachineModel &machine_;
};

} // namespace csched

#endif // CSCHED_BASELINE_PCC_HH
