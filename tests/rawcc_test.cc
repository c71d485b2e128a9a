/**
 * @file
 * Tests for the Rawcc baseline: clustering, merging, placement, and
 * the composed partitioner.
 */

#include <gtest/gtest.h>

#include <set>

#include "baseline/rawcc_clusterer.hh"
#include "baseline/rawcc_merger.hh"
#include "baseline/rawcc_partitioner.hh"
#include "baseline/rawcc_placer.hh"
#include "ir/graph_algorithms.hh"
#include "ir/graph_builder.hh"
#include "machine/raw_machine.hh"
#include "sched/schedule_checker.hh"
#include "schedule_digest.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

TEST(RawccClusterer, ChainCollapsesToOneCluster)
{
    GraphBuilder builder;
    InstrId prev = builder.op(Opcode::IAdd);
    for (int k = 0; k < 5; ++k)
        prev = builder.op(Opcode::IAdd, {prev});
    const auto graph = builder.build();
    const auto clustering = rawccCluster(graph, 3);
    EXPECT_EQ(clustering.count, 1);
}

TEST(RawccClusterer, IndependentChainsStaySeparate)
{
    GraphBuilder builder;
    for (int chain = 0; chain < 4; ++chain) {
        InstrId prev = builder.op(Opcode::IAdd);
        for (int k = 0; k < 3; ++k)
            prev = builder.op(Opcode::IAdd, {prev});
    }
    const auto graph = builder.build();
    const auto clustering = rawccCluster(graph, 3);
    EXPECT_EQ(clustering.count, 4);
}

TEST(RawccClusterer, HomesNeverMix)
{
    const auto graph = findWorkload("jacobi").build(4, 4);
    const auto clustering = rawccCluster(graph, 3);
    // Every cluster has at most one home, tracked in the result.
    std::vector<std::set<int>> homes(clustering.count);
    for (InstrId id = 0; id < graph.numInstructions(); ++id) {
        const int home = graph.instr(id).homeCluster;
        if (home != kNoCluster)
            homes[clustering.clusterOf[id]].insert(home);
    }
    for (int c = 0; c < clustering.count; ++c) {
        EXPECT_LE(homes[c].size(), 1u);
        if (!homes[c].empty()) {
            EXPECT_EQ(clustering.home[c], *homes[c].begin());
        }
    }
}

TEST(RawccClusterer, EstimatorSerialisesWithinCluster)
{
    GraphBuilder builder;
    builder.op(Opcode::IAdd);
    builder.op(Opcode::IAdd);
    const auto graph = builder.build();
    // Same cluster: serialised on the single FU.
    EXPECT_EQ(estimateClusteredMakespan(graph, {0, 0}, 3), 2);
    // Separate clusters: fully parallel.
    EXPECT_EQ(estimateClusteredMakespan(graph, {0, 1}, 3), 1);
}

TEST(RawccClusterer, EstimatorChargesCommunication)
{
    GraphBuilder builder;
    const InstrId a = builder.op(Opcode::IAdd);
    builder.op(Opcode::IAdd, {a});
    const auto graph = builder.build();
    EXPECT_EQ(estimateClusteredMakespan(graph, {0, 0}, 3), 2);
    EXPECT_EQ(estimateClusteredMakespan(graph, {0, 1}, 3), 5);
}

TEST(RawccMerger, ReducesToBudget)
{
    const auto graph = findWorkload("life").build(8, 8);
    const auto clustering = rawccCluster(graph, 3);
    const auto merged = mergeClusters(graph, clustering, 8);
    EXPECT_LE(merged.count, 8);
    // Ids stay dense and homes stay unique.
    std::set<int> used_homes;
    for (int c = 0; c < merged.count; ++c) {
        if (merged.home[c] != kNoCluster) {
            EXPECT_TRUE(used_homes.insert(merged.home[c]).second);
        }
    }
}

TEST(RawccMerger, PreservesMembership)
{
    const auto graph = findWorkload("vvmul").build(4, 4);
    const auto clustering = rawccCluster(graph, 3);
    const auto merged = mergeClusters(graph, clustering, 4);
    // Instructions that shared a cluster before still share one.
    for (InstrId a = 0; a < graph.numInstructions(); ++a) {
        for (InstrId b = a + 1; b < graph.numInstructions(); ++b) {
            if (clustering.clusterOf[a] == clustering.clusterOf[b]) {
                EXPECT_EQ(merged.clusterOf[a], merged.clusterOf[b]);
            }
        }
    }
}

TEST(RawccPlacer, PinnedClustersGoHome)
{
    const auto raw = RawMachine::withTiles(4);
    const auto graph = findWorkload("jacobi").build(4, 4);
    const auto clustering = rawccCluster(graph, 3);
    const auto merged = mergeClusters(graph, clustering, 4);
    const auto assignment = placeClusters(graph, raw, merged);
    for (InstrId id = 0; id < graph.numInstructions(); ++id) {
        const auto &instr = graph.instr(id);
        if (instr.preplaced()) {
            EXPECT_EQ(assignment[id], instr.homeCluster);
        }
    }
}

TEST(RawccPartitioner, LegalSchedulesAcrossTileCounts)
{
    for (int tiles : {2, 4, 8}) {
        const auto raw = RawMachine::withTiles(tiles);
        const RawccPartitioner rawcc(raw);
        const auto graph = findWorkload("mxm").build(tiles, tiles);
        const auto schedule = rawcc.schedule(graph);
        const auto check = checkSchedule(graph, raw, schedule);
        EXPECT_TRUE(check.ok()) << tiles << " tiles: "
                                << check.message();
    }
}

TEST(RawccPartitioner, SpeedsUpParallelKernel)
{
    const auto raw = RawMachine::withTiles(4);
    const RawccPartitioner rawcc(raw);
    const auto graph = findWorkload("vvmul").build(4, 4);
    const auto schedule = rawcc.schedule(graph);
    // All four tiles carry work.
    for (int tile = 0; tile < 4; ++tile)
        EXPECT_GT(schedule.clusterLoad(tile), 0);
}

// Every placement and comm event of Rawcc on paper kernels, pinned to
// digests of the schedules produced when every tentative merge ran a
// full estimate and every placement swap re-summed the whole cost.
// kFaulted has dead and slowed tiles; kDetoured also has dead links,
// which make commLatency asymmetric, so the placer's swap delta must
// keep each pair's (lower, higher) order.
TEST(Rawcc, MeshSchedulesMatchRecordedDigests)
{
    const char *const kFaulted = "raw8x8/faults=seed:2,tiles:5%,slow:20%";
    const char *const kDetoured =
        "raw4x4/faults=seed:7,tiles:12%,links:5%,slow:12%";
    const RecordedDigest recorded[] = {
        {"vliw4", "tomcatv", 0x96febe8c5109a739ull},
        {"raw4x4", "fpppp-kernel", 0x1fa2c3643a0d85c4ull},
        {"raw16x16", "mxm", 0x5b30f5a6fca74659ull},
        {"raw16x16", "tomcatv", 0xa401e1b83dbfd31dull},
        {kFaulted, "mxm", 0x2c033e113c8d0bc1ull},
        {kFaulted, "tomcatv", 0xc696b2e35cc6c5c4ull},
        {kFaulted, "fpppp-kernel", 0xe98577e0fe7391e8ull},
        {kDetoured, "mxm", 0x2a0158183bb2e166ull},
        {kDetoured, "fpppp-kernel", 0x22f7cebfc86557f7ull},
    };
    for (const auto &entry : recorded)
        expectRecordedDigest("rawcc", entry);
}

} // namespace
} // namespace csched
