#include "baseline/rawcc_clusterer.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>

#include "support/logging.hh"

namespace csched {

namespace {

/**
 * estimateClusteredMakespan with what does not change between the
 * estimates of one graph computed once: predecessor counts, negated
 * slacks, latencies and the roots.  The per-cluster free cycles, the
 * data-ready cycles and the ready heap are reset, keeping their
 * capacity, at the start of every estimate.  rawccCluster builds one
 * and calls it once per tentative merge.
 */
class ClusteredEstimator
{
  public:
    /** Virtual cluster ids passed to operator() must be below
     *  @p num_clusters. */
    ClusteredEstimator(const DependenceGraph &graph, int comm_cost,
                       int num_clusters)
        : graph_(graph),
          commCost_(comm_cost),
          predCount_(graph.numInstructions()),
          negSlack_(graph.numInstructions()),
          latency_(graph.numInstructions()),
          clusterFree_(num_clusters),
          unplacedPreds_(graph.numInstructions()),
          dataReady_(graph.numInstructions())
    {
        for (InstrId id = 0; id < graph.numInstructions(); ++id) {
            predCount_[id] = static_cast<int>(graph.preds(id).size());
            negSlack_[id] = -graph.latestFinishSlack(id);
            latency_[id] = graph.latency(id);
            if (predCount_[id] == 0)
                roots_.push_back(id);
        }
    }

    /**
     * Estimated makespan of @p cluster_of.  The running maximum
     * finish only grows, so once it exceeds @p bound the estimate
     * stops and returns that partial maximum: some value > @p bound,
     * exact only up to it.
     */
    int
    operator()(const std::vector<int> &cluster_of,
               int bound = std::numeric_limits<int>::max())
    {
        // Greedy list simulation: each virtual cluster is a single
        // serial FU; communication between clusters costs commCost_
        // cycles.
        std::fill(clusterFree_.begin(), clusterFree_.end(), 0);
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
            const int start = std::max(ready, clusterFree_[cluster]);
            const int finish = start + latency_[id];
            clusterFree_[cluster] = finish;
            makespan = std::max(makespan, finish);
            if (makespan > bound)
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
    /** (data-ready cycle, -slack, id): earliest first, most critical
     *  first among equals. */
    using Entry = std::tuple<int, int, InstrId>;

    void
    push(int ready, InstrId id)
    {
        heap_.emplace_back(ready, negSlack_[id], id);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    const DependenceGraph &graph_;
    int commCost_;
    std::vector<int> predCount_;
    std::vector<int> negSlack_;
    std::vector<int> latency_;
    std::vector<InstrId> roots_;
    std::vector<int> clusterFree_;
    std::vector<int> unplacedPreds_;
    std::vector<int> dataReady_;
    std::vector<Entry> heap_;
};

} // namespace

int
estimateClusteredMakespan(const DependenceGraph &graph,
                          const std::vector<int> &cluster_of,
                          int comm_cost)
{
    int num_clusters = 0;
    for (int c : cluster_of)
        num_clusters = std::max(num_clusters, c + 1);
    return ClusteredEstimator(graph, comm_cost, num_clusters)(cluster_of);
}

ClusteringResult
rawccCluster(const DependenceGraph &graph, int comm_cost)
{
    const int n = graph.numInstructions();
    std::vector<int> cluster_of(n);
    std::vector<int> home(n, kNoCluster);
    std::vector<std::vector<InstrId>> members(n);
    for (InstrId id = 0; id < n; ++id) {
        cluster_of[id] = id;
        home[id] = graph.instr(id).homeCluster;
        members[id] = {id};
    }

    // Data edges by decreasing criticality: an edge is critical when
    // it sits on a long latency-weighted path.
    std::vector<const DepEdge *> edges;
    for (const auto &edge : graph.edges())
        if (edge.kind == DepKind::Data)
            edges.push_back(&edge);
    auto edge_weight = [&](const DepEdge *edge) {
        return graph.earliestStart(edge->src) + graph.latency(edge->src) +
               graph.latestFinishSlack(edge->dst);
    };
    std::stable_sort(edges.begin(), edges.end(),
                     [&](const DepEdge *a, const DepEdge *b) {
                         return edge_weight(a) > edge_weight(b);
                     });

    ClusteredEstimator estimate(graph, comm_cost, n);
    int current = estimate(cluster_of);
    for (const DepEdge *edge : edges) {
        const int a = cluster_of[edge->src];
        const int b = cluster_of[edge->dst];
        if (a == b)
            continue;
        if (home[a] != kNoCluster && home[b] != kNoCluster &&
            home[a] != home[b]) {
            continue;  // would mix preplacement homes
        }
        // Tentatively merge b into a.  A merge is kept when it does not
        // lengthen the estimate, so the estimate may stop as soon as it
        // exceeds the current one.
        for (InstrId id : members[b])
            cluster_of[id] = a;
        const int merged = estimate(cluster_of, current);
        if (merged <= current) {
            current = merged;
            if (home[a] == kNoCluster)
                home[a] = home[b];
            members[a].insert(members[a].end(), members[b].begin(),
                              members[b].end());
            members[b] = {};
        } else {
            for (InstrId id : members[b])
                cluster_of[id] = b;
        }
    }

    // Compact cluster ids.
    ClusteringResult result;
    result.clusterOf.assign(n, -1);
    std::vector<int> dense(n, -1);
    for (InstrId id = 0; id < n; ++id) {
        const int old = cluster_of[id];
        if (dense[old] == -1) {
            dense[old] = result.count++;
            result.home.push_back(home[old]);
        }
        result.clusterOf[id] = dense[old];
    }
    return result;
}

} // namespace csched
