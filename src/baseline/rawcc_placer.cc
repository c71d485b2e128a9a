#include "baseline/rawcc_placer.hh"

#include <algorithm>
#include <cstdint>

#include "support/logging.hh"

namespace csched {

std::vector<int>
placeClusters(const DependenceGraph &graph, const MachineModel &machine,
              const ClusteringResult &clustering)
{
    const int num_tiles = machine.numClusters();
    const int num_vclusters = clustering.count;
    CSCHED_ASSERT(num_vclusters <= machine.numAliveClusters(),
                  "more virtual clusters (", num_vclusters,
                  ") than alive tiles (", machine.numAliveClusters(),
                  ")");

    // Pairwise communication volume between virtual clusters, and
    // each cluster's neighbours (clusters it shares a data edge with),
    // ascending.
    std::vector<std::vector<int>> volume(
        num_vclusters, std::vector<int>(num_vclusters, 0));
    for (const auto &edge : graph.edges()) {
        if (edge.kind != DepKind::Data)
            continue;
        const int a = clustering.clusterOf[edge.src];
        const int b = clustering.clusterOf[edge.dst];
        if (a != b) {
            ++volume[a][b];
            ++volume[b][a];
        }
    }
    std::vector<std::vector<int>> neighbours(num_vclusters);
    for (int v = 0; v < num_vclusters; ++v)
        for (int u = 0; u < num_vclusters; ++u)
            if (volume[v][u] > 0)
                neighbours[v].push_back(u);

    std::vector<int> tile_of(num_vclusters, -1);
    std::vector<bool> tile_used(num_tiles, false);
    // Dead tiles never receive a virtual cluster.
    for (int tile = 0; tile < num_tiles; ++tile)
        if (!machine.clusterAlive(tile))
            tile_used[tile] = true;

    // Pinned clusters first.
    for (int v = 0; v < num_vclusters; ++v) {
        if (clustering.home[v] == kNoCluster)
            continue;
        const int tile = clustering.home[v];
        CSCHED_ASSERT(!tile_used[tile], "two clusters pinned to tile ",
                      tile);
        tile_of[v] = tile;
        tile_used[tile] = true;
    }

    // Free clusters: largest total volume first, greedy best tile.
    std::vector<int> free_clusters;
    for (int v = 0; v < num_vclusters; ++v)
        if (tile_of[v] == -1)
            free_clusters.push_back(v);
    auto total_volume = [&](int v) {
        int total = 0;
        for (int u : neighbours[v])
            total += volume[v][u];
        return total;
    };
    std::stable_sort(free_clusters.begin(), free_clusters.end(),
                     [&](int a, int b) {
                         return total_volume(a) > total_volume(b);
                     });

    auto placement_cost = [&](int v, int tile) {
        int64_t cost = 0;
        for (int u : neighbours[v]) {
            if (tile_of[u] == -1)
                continue;
            cost += static_cast<int64_t>(volume[v][u]) *
                    machine.commLatency(tile, tile_of[u]);
        }
        return cost;
    };

    for (int v : free_clusters) {
        int best_tile = -1;
        int64_t best_cost = 0;
        for (int tile = 0; tile < num_tiles; ++tile) {
            if (tile_used[tile])
                continue;
            const int64_t cost = placement_cost(v, tile);
            if (best_tile == -1 || cost < best_cost) {
                best_tile = tile;
                best_cost = cost;
            }
        }
        CSCHED_ASSERT(best_tile != -1, "ran out of tiles");
        tile_of[v] = best_tile;
        tile_used[best_tile] = true;
    }

    // Pairwise swap refinement among free clusters.  The total cost
    // sums volume x commLatency(tile of the lower id, tile of the
    // higher id) over every pair with volume -- an exact integer --
    // and a swap of a and b changes only the pairs touching them, so
    // a swap is kept when those pairs' cost falls.  Each pair keeps
    // its (lower, higher) order: commLatency can be asymmetric on a
    // faulted mesh, and the swap moves the pair (a, b) itself too.
    auto pair_cost = [&](int v, int u) {
        const int lo = std::min(v, u);
        const int hi = std::max(v, u);
        return static_cast<int64_t>(volume[v][u]) *
               machine.commLatency(tile_of[lo], tile_of[hi]);
    };
    auto touching_cost = [&](int a, int b) {
        int64_t cost = 0;
        for (int u : neighbours[a])
            cost += pair_cost(a, u);
        for (int u : neighbours[b])
            if (u != a)
                cost += pair_cost(b, u);
        return cost;
    };
    bool improved = true;
    int rounds = 0;
    while (improved && rounds < 8) {
        improved = false;
        ++rounds;
        for (size_t i = 0; i < free_clusters.size(); ++i) {
            for (size_t j = i + 1; j < free_clusters.size(); ++j) {
                const int a = free_clusters[i];
                const int b = free_clusters[j];
                const int64_t before = touching_cost(a, b);
                std::swap(tile_of[a], tile_of[b]);
                if (touching_cost(a, b) < before)
                    improved = true;
                else
                    std::swap(tile_of[a], tile_of[b]);
            }
        }
    }

    std::vector<int> assignment(graph.numInstructions());
    for (InstrId id = 0; id < graph.numInstructions(); ++id)
        assignment[id] = tile_of[clustering.clusterOf[id]];
    return assignment;
}

} // namespace csched
