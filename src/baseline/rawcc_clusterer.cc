#include "baseline/rawcc_clusterer.hh"

#include <algorithm>

#include "sched/list_estimate.hh"

namespace csched {

RawccIssueModel::RawccIssueModel(const DependenceGraph &graph,
                                 int num_clusters)
    : latency_(graph.numInstructions()), clusterFree_(num_clusters)
{
    for (InstrId id = 0; id < graph.numInstructions(); ++id)
        latency_[id] = graph.latency(id);
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

    ListEstimator<RawccIssueModel> estimate(graph, comm_cost, n);
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
        // exceeds the current one, that is, reaches current + 1.
        for (InstrId id : members[b])
            cluster_of[id] = a;
        const int merged = estimate(cluster_of, current + 1);
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
