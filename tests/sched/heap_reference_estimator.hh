/**
 * @file
 * The binary-heap list simulation that ListEstimator
 * (sched/list_estimate.hh) replaced with a bucket queue, kept as a
 * reference: ready instructions wait in a (data-ready, -slack, id)
 * min-heap and successors are read through graph.succs().  Same
 * constructor, same issue-model interface and same >= bound rule, so
 * tests/list_estimate_test.cc can run both on one assignment and
 * demand the same estimate.
 *
 * This class is test-only surface: it lives under tests/ and only the
 * estimator tests include it.
 */

#ifndef CSCHED_TESTS_SCHED_HEAP_REFERENCE_ESTIMATOR_HH
#define CSCHED_TESTS_SCHED_HEAP_REFERENCE_ESTIMATOR_HH

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "ir/graph.hh"

namespace csched {

/** Heap-ordered list simulation; see file comment. */
template <typename IssueModel>
class HeapReferenceEstimator
{
  public:
    template <typename... ModelArgs>
    HeapReferenceEstimator(const DependenceGraph &graph, int comm_cost,
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

#endif // CSCHED_TESTS_SCHED_HEAP_REFERENCE_ESTIMATOR_HH
