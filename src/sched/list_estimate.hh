/**
 * @file
 * The bounded list simulation that estimates the makespan of a
 * cluster assignment: PCC's descent runs it once per probe, Rawcc's
 * clusterer once per tentative merge.
 *
 * An instruction becomes ready when its last predecessor finishes, and
 * ready instructions issue earliest data-ready cycle first, then most
 * critical (largest latest-finish slack), then lowest id.  A value
 * that crosses clusters arrives a fixed communication cost after its
 * producer finishes.  How an instruction occupies its cluster, and how
 * long it takes there, is the issue model's part:
 *
 *   void reset();                 // before every estimate
 *   int finish(InstrId id, int cluster, int ready);
 *                                 // issue id on cluster no earlier
 *                                 // than ready; its finish cycle,
 *                                 // which must be > ready
 *
 * PCC's model (per-cycle issue slots, slowed clusters, remote banks)
 * is PccIssueModel in baseline/pcc.hh; Rawcc's (one serial FU per
 * virtual cluster) is RawccIssueModel in baseline/rawcc_clusterer.hh.
 * The model is a template parameter, so the loop has no branch on
 * which caller it serves.
 *
 * Ready instructions wait in a monotone bucket queue indexed by
 * data-ready cycle, and the simulation walks the buckets cycle by
 * cycle.  Within a bucket they pop in rank order, where the rank of an
 * instruction is its position in (-slack, id) order, computed once per
 * graph: a bucket is a linked list of ranks until the walk reaches it,
 * and is then drained smallest rank first through a bitmap over the
 * ranks.  This pops exactly the (data-ready, -slack, id) order of a
 * priority queue because finish > ready: every latency is >= 1
 * (LatencyModel::setLatency asserts it), a cluster's latency factor is
 * >= 1 and no penalty or communication cost is negative, so every
 * arrival pushed while bucket r is popped lands in a later bucket, and
 * bucket r is complete when the walk reaches it.  The push asserts
 * that precondition.
 */

#ifndef CSCHED_SCHED_LIST_ESTIMATE_HH
#define CSCHED_SCHED_LIST_ESTIMATE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "ir/graph.hh"
#include "support/logging.hh"

namespace csched {

/**
 * List-simulation makespan estimator over one graph.  What does not
 * change between estimates (predecessor counts, ranks, roots, the
 * successor lists as flat arrays) is computed once; the issue model,
 * the data-ready cycles and the buckets are reset, keeping their
 * capacity, at the start of each one.
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
        : commCost_(comm_cost),
          model_(graph, model_args...),
          predCount_(graph.numInstructions()),
          byRank_(graph.numInstructions()),
          rank_(graph.numInstructions()),
          succBegin_(graph.numInstructions() + 1),
          unplacedPreds_(graph.numInstructions()),
          dataReady_(graph.numInstructions()),
          head_(1, kEmpty),
          next_(graph.numInstructions()),
          bucket_(graph.numInstructions())
    {
        const int n = graph.numInstructions();
        std::vector<int> neg_slack(n);
        for (InstrId id = 0; id < n; ++id) {
            predCount_[id] = static_cast<int>(graph.preds(id).size());
            neg_slack[id] = -graph.latestFinishSlack(id);
            if (predCount_[id] == 0)
                roots_.push_back(id);
            succBegin_[id] = static_cast<int>(succ_.size());
            succ_.insert(succ_.end(), graph.succs(id).begin(),
                         graph.succs(id).end());
        }
        succBegin_[n] = static_cast<int>(succ_.size());
        std::iota(byRank_.begin(), byRank_.end(), 0);
        std::stable_sort(byRank_.begin(), byRank_.end(),
                         [&](InstrId a, InstrId b) {
                             return neg_slack[a] < neg_slack[b];
                         });
        for (int r = 0; r < n; ++r)
            rank_[byRank_[r]] = r;
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
        lastBucket_ = 0;
        for (InstrId id : roots_)
            push(0, id);

        int makespan = 0;
        for (int ready = 0; ready <= lastBucket_; ++ready) {
            // An idle cycle costs nothing: a drain scans every summary
            // word, so an empty bucket must not reach it.
            if (head_[ready] == kEmpty)
                continue;
            for (int r = head_[ready]; r != kEmpty; r = next_[r])
                bucket_.insert(r);
            head_[ready] = kEmpty;
            const bool below_bound = bucket_.drain([&](int r) {
                const InstrId id = byRank_[r];
                const int cluster = cluster_of[id];
                const int finish = model_.finish(id, cluster, ready);
                makespan = std::max(makespan, finish);
                if (makespan >= bound)
                    return false;
                for (int e = succBegin_[id]; e < succBegin_[id + 1]; ++e) {
                    const InstrId succ = succ_[e];
                    const int arrival =
                        finish + (cluster_of[succ] == cluster ? 0 : commCost_);
                    dataReady_[succ] = std::max(dataReady_[succ], arrival);
                    if (--unplacedPreds_[succ] == 0) {
                        CSCHED_ASSERT(dataReady_[succ] > ready,
                                      "instruction ", succ,
                                      " became ready in cycle ", ready,
                                      ": an issue model's finish must "
                                      "exceed ready");
                        push(dataReady_[succ], succ);
                    }
                }
                return true;
            });
            if (!below_bound) {
                std::fill(head_.begin() + ready + 1,
                          head_.begin() + lastBucket_ + 1, kEmpty);
                return makespan;
            }
        }
        return makespan;
    }

  private:
    static constexpr int kEmpty = -1;

    /**
     * The ranks of the bucket being popped, as a two-level bitmap: one
     * bit per rank, and one summary bit per 64-rank word that has a
     * bit set.  Filled, then drained smallest first: a drain scans
     * n / 4096 summary words, so a bucket of k ranks pops in rank
     * order in O(k + n / 4096) without a sort.  Empty between
     * buckets.
     */
    class RankSet
    {
      public:
        explicit RankSet(int n)
            : word_((n + 63) / 64), summary_((n + 4095) / 4096)
        {
        }

        void
        insert(int r)
        {
            word_[r >> 6] |= uint64_t{1} << (r & 63);
            summary_[r >> 12] |= uint64_t{1} << ((r >> 6) & 63);
        }

        /**
         * Call @p visit(r) for every rank r, smallest first, emptying
         * the set.  When @p visit returns false the set is emptied
         * without visiting the rest, and drain returns false.
         */
        template <typename Visit>
        bool
        drain(Visit visit)
        {
            for (size_t s = 0; s < summary_.size(); ++s) {
                for (; summary_[s] != 0; summary_[s] &= summary_[s] - 1) {
                    const size_t w = s * 64 + std::countr_zero(summary_[s]);
                    for (uint64_t bits = std::exchange(word_[w], 0);
                         bits != 0; bits &= bits - 1) {
                        if (!visit(static_cast<int>(w * 64) +
                                   std::countr_zero(bits))) {
                            std::fill(word_.begin(), word_.end(), 0);
                            std::fill(summary_.begin(), summary_.end(), 0);
                            return false;
                        }
                    }
                }
            }
            return true;
        }

      private:
        std::vector<uint64_t> word_;
        std::vector<uint64_t> summary_;
    };

    /** Add @p id to bucket @p ready, growing the buckets on demand. */
    void
    push(int ready, InstrId id)
    {
        if (ready >= static_cast<int>(head_.size()))
            head_.resize(std::max<size_t>(ready + 1, 2 * head_.size()),
                         kEmpty);
        const int r = rank_[id];
        next_[r] = head_[ready];
        head_[ready] = r;
        lastBucket_ = std::max(lastBucket_, ready);
    }

    int commCost_;
    IssueModel model_;
    std::vector<int> predCount_;
    /** Instruction ids in (-slack, id) order, and each id's position. */
    std::vector<InstrId> byRank_;
    std::vector<int> rank_;
    std::vector<InstrId> roots_;
    /** Successors of id are succ_[succBegin_[id] .. succBegin_[id+1]). */
    std::vector<int> succBegin_;
    std::vector<InstrId> succ_;
    std::vector<int> unplacedPreds_;
    std::vector<int> dataReady_;
    /** Per data-ready cycle, the first rank of its bucket's list; each
     *  rank links to the next in next_.  Empty between estimates. */
    std::vector<int> head_;
    std::vector<int> next_;
    int lastBucket_ = 0;
    /** The bucket being popped. */
    RankSet bucket_;
};

} // namespace csched

#endif // CSCHED_SCHED_LIST_ESTIMATE_HH
