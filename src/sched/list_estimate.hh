/**
 * @file
 * The bounded list simulation that estimates the makespan of a
 * cluster assignment: PCC's descent runs it once per probe, Rawcc's
 * clusterer once per tentative merge.
 *
 * An instruction becomes ready when its last predecessor finishes, and
 * ready instructions issue earliest data-ready cycle first, then most
 * critical (smallest latest-finish slack), then lowest id.  A value
 * that crosses clusters arrives a fixed communication cost after its
 * producer finishes.  How an instruction occupies its cluster, and how
 * long it takes there, is the issue model's part:
 *
 *   void reset();                 // before every estimate
 *   int finish(InstrId id, int cluster, int ready);
 *                                 // issue id on cluster no earlier
 *                                 // than ready; its finish cycle
 *
 * PCC's model (per-cycle issue slots, slowed clusters, remote banks)
 * is PccIssueModel in baseline/pcc.hh; Rawcc's (one serial FU per
 * virtual cluster) is RawccIssueModel in baseline/rawcc_clusterer.hh.
 * The model is a template parameter, so the loop has no branch on
 * which caller it serves.
 */

#ifndef CSCHED_SCHED_LIST_ESTIMATE_HH
#define CSCHED_SCHED_LIST_ESTIMATE_HH

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "ir/graph.hh"

namespace csched {

/**
 * List-simulation makespan estimator over one graph.  What does not
 * change between estimates (predecessor counts, negated slacks, roots)
 * is computed once; the issue model, the data-ready cycles and the
 * heap are reset, keeping their capacity, at the start of each one.
 */
template <typename IssueModel>
class ListEstimator
{
  public:
    /**
     * Estimator for @p graph with @p comm_cost cycles on every
     * cross-cluster data edge; the issue model is built from
     * (@p graph, @p model_args...).
     */
    template <typename... ModelArgs>
    ListEstimator(const DependenceGraph &graph, int comm_cost,
                  const ModelArgs &...model_args)
        : graph_(graph),
          commCost_(comm_cost),
          model_(graph, model_args...),
          predCount_(graph.numInstructions()),
          negSlack_(graph.numInstructions()),
          unplacedPreds_(graph.numInstructions()),
          dataReady_(graph.numInstructions())
    {
        for (InstrId id = 0; id < graph.numInstructions(); ++id) {
            predCount_[id] = static_cast<int>(graph.preds(id).size());
            negSlack_[id] = -graph.latestFinishSlack(id);
            if (predCount_[id] == 0)
                roots_.push_back(id);
        }
    }

    /**
     * Estimated makespan with instruction i on cluster
     * @p cluster_of[i].  The running maximum finish only grows, so
     * once it reaches @p bound the estimate stops and returns it: the
     * result is exact when below @p bound, and some value >= @p bound
     * otherwise.
     */
    int
    operator()(const std::vector<int> &cluster_of,
               int bound = std::numeric_limits<int>::max())
    {
        model_.reset();
        unplacedPreds_ = predCount_;
        std::fill(dataReady_.begin(), dataReady_.end(), 0);
        heap_.clear();
        for (InstrId id : roots_)
            push(0, id);

        int makespan = 0;
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            const auto [ready, neg_slack, id] = heap_.back();
            heap_.pop_back();
            const int cluster = cluster_of[id];
            const int finish = model_.finish(id, cluster, ready);
            makespan = std::max(makespan, finish);
            if (makespan >= bound)
                return makespan;
            for (InstrId succ : graph_.succs(id)) {
                const int arrival =
                    finish + (cluster_of[succ] == cluster ? 0 : commCost_);
                dataReady_[succ] = std::max(dataReady_[succ], arrival);
                if (--unplacedPreds_[succ] == 0)
                    push(dataReady_[succ], succ);
            }
        }
        return makespan;
    }

  private:
    /** (data-ready cycle, -slack, id): popped smallest first. */
    using Entry = std::tuple<int, int, InstrId>;

    void
    push(int ready, InstrId id)
    {
        heap_.emplace_back(ready, negSlack_[id], id);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    const DependenceGraph &graph_;
    int commCost_;
    IssueModel model_;
    std::vector<int> predCount_;
    std::vector<int> negSlack_;
    std::vector<InstrId> roots_;
    std::vector<int> unplacedPreds_;
    std::vector<int> dataReady_;
    std::vector<Entry> heap_;
};

} // namespace csched

#endif // CSCHED_SCHED_LIST_ESTIMATE_HH
