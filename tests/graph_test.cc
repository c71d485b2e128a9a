/**
 * @file
 * Unit tests for the dependence graph and its analyses.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/graph.hh"

namespace csched {
namespace {

/** Instruction with just an opcode. */
Instruction
ins(Opcode op)
{
    Instruction instr;
    instr.op = op;
    return instr;
}

/** a -> b -> d, a -> c -> d diamond with integer adds. */
DependenceGraph
makeDiamond()
{
    DependenceGraph graph;
    for (int k = 0; k < 4; ++k) {
        Instruction instr;
        instr.op = Opcode::IAdd;
        graph.addInstruction(instr);
    }
    graph.addEdge(0, 1);
    graph.addEdge(0, 2);
    graph.addEdge(1, 3);
    graph.addEdge(2, 3);
    graph.finalize();
    return graph;
}

TEST(Graph, StructureQueries)
{
    const auto graph = makeDiamond();
    EXPECT_EQ(graph.numInstructions(), 4);
    EXPECT_EQ(graph.edges().size(), 4u);
    EXPECT_EQ(graph.preds(3).size(), 2u);
    EXPECT_EQ(graph.succs(0).size(), 2u);
    EXPECT_TRUE(graph.preds(0).empty());
    EXPECT_TRUE(graph.succs(3).empty());
}

TEST(Graph, RootsAndLeaves)
{
    const auto graph = makeDiamond();
    EXPECT_EQ(graph.roots(), std::vector<InstrId>{0});
    EXPECT_EQ(graph.leaves(), std::vector<InstrId>{3});
}

TEST(Graph, DuplicateEdgesCoalesce)
{
    DependenceGraph graph;
    for (int k = 0; k < 5; ++k)
        graph.addInstruction(ins(Opcode::IAdd));
    graph.addEdge(0, 1, DepKind::Anti);
    graph.addEdge(0, 2, DepKind::Output);
    graph.addEdge(3, 1, DepKind::Data);
    graph.addEdge(0, 4, DepKind::Anti);
    graph.addEdge(2, 4, DepKind::Data);
    // Duplicates, interleaved with new edges from other sources.
    graph.addEdge(0, 2, DepKind::Data);    // upgrades 0->2 in place
    graph.addEdge(3, 4, DepKind::Anti);
    graph.addEdge(0, 1, DepKind::Output);  // ordering stays Anti
    graph.addEdge(0, 2, DepKind::Anti);    // Data stays Data
    graph.addEdge(3, 1, DepKind::Output);  // Data stays Data
    graph.addEdge(0, 4, DepKind::Data);    // upgrades 0's last out-edge
    graph.addEdge(2, 4, DepKind::Anti);    // Data stays Data
    graph.addEdge(0, 4, DepKind::Output);  // the upgraded edge stays Data
    graph.finalize();

    // One edge per (src, dst), each at its first insertion's position.
    const std::vector<DepEdge> expected = {
        {0, 1, DepKind::Anti}, {0, 2, DepKind::Data},
        {3, 1, DepKind::Data}, {0, 4, DepKind::Data},
        {2, 4, DepKind::Data}, {3, 4, DepKind::Anti},
    };
    ASSERT_EQ(graph.edges().size(), expected.size());
    for (size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(graph.edges()[k].src, expected[k].src) << "edge " << k;
        EXPECT_EQ(graph.edges()[k].dst, expected[k].dst) << "edge " << k;
        EXPECT_EQ(graph.edges()[k].kind, expected[k].kind) << "edge " << k;
    }
    // Adjacency lists hold each neighbour once, in insertion order.
    EXPECT_EQ(graph.succs(0), (std::vector<InstrId>{1, 2, 4}));
    EXPECT_EQ(graph.succs(2), (std::vector<InstrId>{4}));
    EXPECT_EQ(graph.succs(3), (std::vector<InstrId>{1, 4}));
    EXPECT_EQ(graph.preds(1), (std::vector<InstrId>{0, 3}));
    EXPECT_EQ(graph.preds(2), (std::vector<InstrId>{0}));
    EXPECT_EQ(graph.preds(4), (std::vector<InstrId>{0, 2, 3}));
}

TEST(Graph, TopologicalOrderRespectsEdges)
{
    const auto graph = makeDiamond();
    const auto &topo = graph.topoOrder();
    ASSERT_EQ(topo.size(), 4u);
    std::vector<int> position(4);
    for (int k = 0; k < 4; ++k)
        position[topo[k]] = k;
    for (const auto &edge : graph.edges())
        EXPECT_LT(position[edge.src], position[edge.dst]);
}

TEST(Graph, EarliestStartIsLatencyWeighted)
{
    const auto graph = makeDiamond();  // IAdd latency 1
    EXPECT_EQ(graph.earliestStart(0), 0);
    EXPECT_EQ(graph.earliestStart(1), 1);
    EXPECT_EQ(graph.earliestStart(2), 1);
    EXPECT_EQ(graph.earliestStart(3), 2);
    EXPECT_EQ(graph.criticalPathLength(), 3);
}

TEST(Graph, MultiCycleLatenciesLengthenPaths)
{
    DependenceGraph graph;
    graph.addInstruction(ins(Opcode::FMul));  // latency 4
    graph.addInstruction(ins(Opcode::IAdd));
    graph.addEdge(0, 1);
    graph.finalize();
    EXPECT_EQ(graph.earliestStart(1), 4);
    EXPECT_EQ(graph.criticalPathLength(), 5);
    EXPECT_EQ(graph.latestFinishSlack(0), 5);
    EXPECT_EQ(graph.latestFinishSlack(1), 1);
}

TEST(Graph, LevelsCountNodesNotLatency)
{
    DependenceGraph graph;
    graph.addInstruction(ins(Opcode::FMul));
    graph.addInstruction(ins(Opcode::IAdd));
    graph.addInstruction(ins(Opcode::IAdd));
    graph.addEdge(0, 1);
    graph.addEdge(1, 2);
    graph.finalize();
    EXPECT_EQ(graph.level(0), 0);
    EXPECT_EQ(graph.level(1), 1);
    EXPECT_EQ(graph.level(2), 2);
    EXPECT_EQ(graph.maxLevel(), 2);
}

TEST(Graph, CriticalPathIsAMaximalLatencyPath)
{
    const auto graph = makeDiamond();
    const auto &path = graph.criticalPath();
    ASSERT_EQ(path.size(), 3u);  // 0 -> {1 or 2} -> 3
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 3);
    // Path members are connected.
    for (size_t k = 0; k + 1 < path.size(); ++k) {
        const auto &succs = graph.succs(path[k]);
        EXPECT_NE(std::find(succs.begin(), succs.end(), path[k + 1]),
                  succs.end());
    }
}

TEST(Graph, SlackOfEveryInstructionBoundedByCpl)
{
    const auto graph = makeDiamond();
    for (InstrId id = 0; id < graph.numInstructions(); ++id) {
        EXPECT_GE(graph.latestFinishSlack(id), graph.latency(id));
        EXPECT_LE(graph.earliestStart(id) + graph.latestFinishSlack(id),
                  graph.criticalPathLength());
    }
}

TEST(GraphDeathTest, CycleDetected)
{
    DependenceGraph graph;
    for (int k = 0; k < 3; ++k)
        graph.addInstruction(ins(Opcode::IAdd));
    graph.addEdge(0, 1);
    graph.addEdge(1, 2);
    graph.addEdge(2, 0);
    EXPECT_DEATH(graph.finalize(), "cycle");
}

TEST(GraphDeathTest, SelfEdgeRejected)
{
    DependenceGraph graph;
    graph.addInstruction(ins(Opcode::IAdd));
    EXPECT_DEATH(graph.addEdge(0, 0), "self edge");
}

TEST(GraphDeathTest, AnalysisBeforeFinalize)
{
    DependenceGraph graph;
    graph.addInstruction(ins(Opcode::IAdd));
    EXPECT_DEATH(graph.criticalPathLength(), "finalize");
}

TEST(GraphDeathTest, MutationAfterFinalize)
{
    auto graph = makeDiamond();
    EXPECT_DEATH(graph.addInstruction(ins(Opcode::IAdd)),
                 "finalize");
}

TEST(GraphDeathTest, EmptyGraphCannotFinalize)
{
    DependenceGraph graph;
    EXPECT_DEATH(graph.finalize(), "empty");
}

TEST(Graph, CustomLatencyModel)
{
    LatencyModel model;
    model.setLatency(Opcode::IAdd, 7);
    DependenceGraph graph(model);
    graph.addInstruction(ins(Opcode::IAdd));
    graph.addInstruction(ins(Opcode::IAdd));
    graph.addEdge(0, 1);
    graph.finalize();
    EXPECT_EQ(graph.latency(0), 7);
    EXPECT_EQ(graph.criticalPathLength(), 14);
}

} // namespace
} // namespace csched
