/**
 * @file
 * Rawcc phase 1: clustering (Lee et al., ASPLOS '98).
 *
 * Groups together instructions that have little parallelism between
 * them so that later phases never pay communication for serial chains.
 * The implementation follows Sarkar-style internalisation: every
 * instruction starts in its own virtual cluster; data edges are
 * visited in order of decreasing criticality, and an edge's two
 * clusters are merged when doing so does not increase the estimated
 * parallel completion time on an idealised machine (one FU per
 * cluster, unbounded clusters, fixed inter-cluster communication
 * cost).  Clusters never mix two different preplacement homes.
 *
 * The estimate is the list simulation PCC's descent also runs
 * (ListEstimator, sched/list_estimate.hh); Rawcc's part of it is the
 * issue model below.
 */

#ifndef CSCHED_BASELINE_RAWCC_CLUSTERER_HH
#define CSCHED_BASELINE_RAWCC_CLUSTERER_HH

#include <algorithm>
#include <vector>

#include "ir/graph.hh"

namespace csched {

/**
 * Rawcc's issue model for ListEstimator: each virtual cluster is one
 * serial, unpipelined FU, so an instruction starts once its operands
 * are ready and its cluster's previous instruction has finished, and
 * holds the FU for its latency.
 */
class RawccIssueModel
{
  public:
    /** Virtual cluster ids must be below @p num_clusters. */
    RawccIssueModel(const DependenceGraph &graph, int num_clusters);

    void reset() { std::fill(clusterFree_.begin(), clusterFree_.end(), 0); }

    int
    finish(InstrId id, int cluster, int ready)
    {
        const int start = std::max(ready, clusterFree_[cluster]);
        return clusterFree_[cluster] = start + latency_[id];
    }

  private:
    /** Latency per instruction, cached for the estimator's pop loop. */
    std::vector<int> latency_;
    /** First cycle each virtual cluster's FU is free. */
    std::vector<int> clusterFree_;
};

/** Result of clustering: dense virtual-cluster ids per instruction. */
struct ClusteringResult
{
    /** Virtual cluster id per instruction, dense in [0, count). */
    std::vector<int> clusterOf;
    int count = 0;
    /** Home tile per virtual cluster (kNoCluster when unconstrained). */
    std::vector<int> home;
};

/**
 * Cluster @p graph with inter-cluster communication cost
 * @p comm_cost (the machine's firstHopLatency()).
 */
ClusteringResult rawccCluster(const DependenceGraph &graph, int comm_cost);

} // namespace csched

#endif // CSCHED_BASELINE_RAWCC_CLUSTERER_HH
