/**
 * @file
 * Free-standing graph utilities shared by the schedulers and passes.
 */

#ifndef CSCHED_IR_GRAPH_ALGORITHMS_HH
#define CSCHED_IR_GRAPH_ALGORITHMS_HH

#include <vector>

#include "ir/graph.hh"

namespace csched {

/**
 * Derive preplacement from memory banks: every Load/Store with bank b
 * becomes preplaced on cluster b % numClusters.  This mirrors the
 * congruence/Maps analysis in Rawcc and Chorus, where memory is
 * interleaved across the clusters' local banks.  Must be called before
 * finalize().
 */
void preplaceMemoryByBank(DependenceGraph &graph, int num_clusters);

/** Sum of all instruction latencies: the serial-schedule upper bound. */
int totalWork(const DependenceGraph &graph);

/** Shape statistics for a graph, used by the Figure-2 bench. */
struct GraphShape
{
    int instructions = 0;
    int edges = 0;
    int criticalPathLength = 0;
    int maxLevel = 0;
    double avgWidth = 0.0;  ///< instructions / (maxLevel + 1)
    double parallelism = 0.0;  ///< totalWork / criticalPathLength
    int preplaced = 0;
};

/** Compute shape statistics of a finalized graph. */
GraphShape analyzeShape(const DependenceGraph &graph);

} // namespace csched

#endif // CSCHED_IR_GRAPH_ALGORITHMS_HH
