#include "ir/graph_algorithms.hh"

#include "support/logging.hh"

namespace csched {

void
preplaceMemoryByBank(DependenceGraph &graph, int num_clusters)
{
    CSCHED_ASSERT(num_clusters > 0, "need at least one cluster");
    CSCHED_ASSERT(!graph.finalized(),
                  "preplacement must be applied before finalize()");
    for (int id = 0; id < graph.numInstructions(); ++id) {
        auto &instr = graph.instr(id);
        if (isMemory(instr.op) && instr.memBank != kNoCluster)
            instr.homeCluster = instr.memBank % num_clusters;
    }
}

int
totalWork(const DependenceGraph &graph)
{
    int total = 0;
    for (int id = 0; id < graph.numInstructions(); ++id)
        total += graph.latency(id);
    return total;
}

GraphShape
analyzeShape(const DependenceGraph &graph)
{
    GraphShape shape;
    shape.instructions = graph.numInstructions();
    shape.edges = static_cast<int>(graph.edges().size());
    shape.criticalPathLength = graph.criticalPathLength();
    shape.maxLevel = graph.maxLevel();
    shape.avgWidth = static_cast<double>(shape.instructions) /
                     static_cast<double>(shape.maxLevel + 1);
    shape.parallelism = static_cast<double>(totalWork(graph)) /
                        static_cast<double>(shape.criticalPathLength);
    shape.preplaced = graph.numPreplaced();
    return shape;
}

} // namespace csched
