/**
 * @file
 * Unit tests for the free-standing graph utilities.
 */

#include <gtest/gtest.h>

#include "ir/graph_algorithms.hh"
#include "ir/graph_builder.hh"

namespace csched {
namespace {

TEST(PreplaceByBank, AssignsHomesModuloClusters)
{
    GraphBuilder builder;
    const InstrId l0 = builder.load(0);
    const InstrId l5 = builder.load(5);
    const InstrId add = builder.op(Opcode::IAdd, {l0, l5});
    const InstrId st = builder.store(2, add);
    preplaceMemoryByBank(builder.graph(), 4);
    const auto graph = builder.build();
    EXPECT_EQ(graph.instr(l0).homeCluster, 0);
    EXPECT_EQ(graph.instr(l5).homeCluster, 1);  // 5 % 4
    EXPECT_EQ(graph.instr(st).homeCluster, 2);
    EXPECT_FALSE(graph.instr(add).preplaced());
}

TEST(PreplaceByBank, SkipsUnanalysableAccesses)
{
    GraphBuilder builder;
    const InstrId ld = builder.load(kNoCluster);
    preplaceMemoryByBank(builder.graph(), 4);
    const auto graph = builder.build();
    EXPECT_FALSE(graph.instr(ld).preplaced());
}

TEST(PreplaceByBank, SingleClusterMapsEverythingHome)
{
    GraphBuilder builder;
    builder.load(7);
    builder.load(13);
    preplaceMemoryByBank(builder.graph(), 1);
    const auto graph = builder.build();
    EXPECT_EQ(graph.instr(0).homeCluster, 0);
    EXPECT_EQ(graph.instr(1).homeCluster, 0);
}

TEST(TotalWork, SumsLatencies)
{
    GraphBuilder builder;
    builder.op(Opcode::IAdd);        // 1
    builder.op(Opcode::FMul);        // 4
    builder.load(0);                 // 2
    const auto graph = builder.build();
    EXPECT_EQ(totalWork(graph), 7);
}

TEST(AnalyzeShape, ReportsBasicQuantities)
{
    GraphBuilder builder;
    const InstrId a = builder.load(0);
    const InstrId b = builder.load(1);
    const InstrId m = builder.op(Opcode::FMul, {a, b});
    builder.store(0, m);
    preplaceMemoryByBank(builder.graph(), 2);
    const auto graph = builder.build();
    const auto shape = analyzeShape(graph);
    EXPECT_EQ(shape.instructions, 4);
    EXPECT_EQ(shape.edges, 3);
    EXPECT_EQ(shape.preplaced, 3);
    EXPECT_EQ(shape.criticalPathLength, 7);  // load2 + fmul4 + store1
    EXPECT_GT(shape.parallelism, 1.0);
}

} // namespace
} // namespace csched
