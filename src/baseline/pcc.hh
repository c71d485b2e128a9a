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
 *
 * The descent's estimator is the list simulation Rawcc's clusterer
 * also runs (ListEstimator, sched/list_estimate.hh); PCC's part of it
 * is the issue model below.
 */

#ifndef CSCHED_BASELINE_PCC_HH
#define CSCHED_BASELINE_PCC_HH

#include <vector>

#include "ir/graph.hh"
#include "machine/machine.hh"
#include "sched/algorithm.hh"

namespace csched {

/**
 * PCC's issue model for ListEstimator.  Desoli's TR guides the descent
 * by an estimation algorithm rather than a full scheduler: each
 * cluster issues up to its FU count per cycle (no FU typing), an
 * instruction takes its latency stretched by the cluster's latency
 * factor, and a preplaced memory operation placed off its home pays
 * the remote-bank penalty (the preplacement extension the
 * convergent-scheduling paper added).  The descent prices every
 * cross-cluster data edge at MachineModel::firstHopLatency().
 */
class PccIssueModel
{
  public:
    PccIssueModel(const DependenceGraph &graph, const MachineModel &machine);

    void
    reset()
    {
        for (auto &slots : issued_)
            slots.clear();
    }

    /** Takes the first free issue slot of @p cluster from cycle
     *  @p ready on; the cycle buckets grow on demand. */
    int
    finish(InstrId id, int cluster, int ready)
    {
        auto &slots = issued_[cluster];
        int start = ready;
        while (true) {
            if (start >= static_cast<int>(slots.size()))
                slots.resize(start + 1, 0);
            if (slots[start] < width_[cluster])
                break;
            ++start;
        }
        ++slots[start];
        const auto &instr = graph_.instr(id);
        const int penalty = isMemory(instr.op)
                                ? machine_.memoryPenalty(instr.memBank,
                                                         cluster)
                                : 0;
        return start + machine_.execLatency(cluster, graph_.latency(id)) +
               penalty;
    }

  private:
    const DependenceGraph &graph_;
    const MachineModel &machine_;
    /** Issue slots per cycle of each cluster: its FU count. */
    std::vector<int> width_;
    /** Instructions issued per cycle of each cluster. */
    std::vector<std::vector<int>> issued_;
};

/** Partial-component clustering baseline. */
class PccScheduler : public SchedulingAlgorithm
{
  public:
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
