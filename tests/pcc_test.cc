/**
 * @file
 * Tests for the PCC baseline: component construction invariants, the
 * schedule-length estimator, and end-to-end legality.
 */

#include <gtest/gtest.h>

#include <map>

#include "baseline/pcc.hh"
#include "ir/graph_algorithms.hh"
#include "ir/graph_builder.hh"
#include "machine/clustered_vliw.hh"
#include "machine/machine_spec.hh"
#include "machine/raw_machine.hh"
#include "sched/schedule_checker.hh"
#include "schedule_digest.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

TEST(Pcc, ComponentsCoverEveryInstructionWithinCap)
{
    const ClusteredVliwMachine vliw(4);
    PccScheduler::Options options;
    options.componentCap = 5;
    const PccScheduler pcc(vliw, options);
    const auto graph = findWorkload("mxm").build(4, 4);
    const auto component = pcc.buildComponents(graph);
    ASSERT_EQ(component.size(),
              static_cast<size_t>(graph.numInstructions()));
    std::map<int, int> sizes;
    for (int comp : component) {
        EXPECT_GE(comp, 0);
        sizes[comp] += 1;
    }
    for (const auto &[comp, size] : sizes)
        EXPECT_LE(size, 5) << "component " << comp;
}

TEST(Pcc, ComponentsNeverMixPreplacementHomes)
{
    const ClusteredVliwMachine vliw(4);
    const PccScheduler pcc(vliw);
    const auto graph = findWorkload("fir").build(4, 4);
    const auto component = pcc.buildComponents(graph);
    std::map<int, int> home_of;
    for (InstrId id = 0; id < graph.numInstructions(); ++id) {
        const int home = graph.instr(id).homeCluster;
        if (home == kNoCluster)
            continue;
        auto [it, inserted] = home_of.emplace(component[id], home);
        if (!inserted) {
            EXPECT_EQ(it->second, home)
                << "component " << component[id];
        }
    }
}

TEST(Pcc, AutoCapScalesWithGraphSize)
{
    const ClusteredVliwMachine vliw(4);
    const PccScheduler pcc(vliw);
    EXPECT_EQ(pcc.effectiveCap(16), 4);   // floor
    EXPECT_EQ(pcc.effectiveCap(1600), 100);
}

TEST(Pcc, ChainLandsInOneComponent)
{
    GraphBuilder builder;
    InstrId prev = builder.op(Opcode::IAdd);
    for (int k = 0; k < 3; ++k)
        prev = builder.op(Opcode::IAdd, {prev});
    const auto graph = builder.build();
    const ClusteredVliwMachine vliw(4);
    const PccScheduler pcc(vliw);
    const auto component = pcc.buildComponents(graph);
    for (int comp : component)
        EXPECT_EQ(comp, component[0]);
}

TEST(Pcc, EstimatorLowerBoundsChains)
{
    GraphBuilder builder;
    InstrId prev = builder.op(Opcode::FMul);  // latency 4
    prev = builder.op(Opcode::FAdd, {prev});
    const auto graph = builder.build();
    const ClusteredVliwMachine vliw(4);
    const PccScheduler pcc(vliw);
    // Same-cluster chain: 4 + 4.
    EXPECT_EQ(pcc.estimate(graph, {0, 0}), 8);
    // Split chain pays the one-cycle copy.
    EXPECT_EQ(pcc.estimate(graph, {0, 1}), 9);
}

TEST(Pcc, EstimatorModelsIssueWidth)
{
    GraphBuilder builder;
    for (int k = 0; k < 8; ++k)
        builder.op(Opcode::IAdd);
    const auto graph = builder.build();
    const ClusteredVliwMachine vliw(1);
    const PccScheduler pcc(vliw);
    // Width 4 per cluster: eight one-cycle adds need two issue
    // rounds, finishing at cycle 2.
    EXPECT_EQ(pcc.estimate(graph, std::vector<int>(8, 0)), 2);
}

TEST(Pcc, EstimatorChargesRemoteMemory)
{
    GraphBuilder builder;
    builder.load(1);
    const auto graph = builder.build();
    const ClusteredVliwMachine vliw(4);
    const PccScheduler pcc(vliw);
    EXPECT_EQ(pcc.estimate(graph, {1}), 2);  // local bank
    EXPECT_EQ(pcc.estimate(graph, {0}), 3);  // +1 remote
}

TEST(Pcc, EndToEndLegalAndPreplacementSafe)
{
    const ClusteredVliwMachine vliw(4);
    const PccScheduler pcc(vliw);
    for (const char *name : {"vvmul", "tomcatv", "cholesky"}) {
        const auto graph = findWorkload(name).build(4, 4);
        const auto schedule = pcc.schedule(graph);
        const auto check = checkSchedule(graph, vliw, schedule);
        EXPECT_TRUE(check.ok()) << name << ": " << check.message();
        for (InstrId id = 0; id < graph.numInstructions(); ++id) {
            const auto &instr = graph.instr(id);
            if (instr.preplaced()) {
                EXPECT_EQ(schedule.clusterOf(id), instr.homeCluster);
            }
        }
    }
}

TEST(Pcc, DescentDoesNotRegressEstimate)
{
    // The descent only accepts improving moves, so the final estimate
    // can never exceed the initial assignment's estimate.  We verify
    // indirectly: PCC beats or matches the naive everything-on-the-
    // home-or-cluster-0 assignment on a parallel kernel.
    const ClusteredVliwMachine vliw(4);
    const PccScheduler pcc(vliw);
    const auto graph = findWorkload("vvmul").build(4, 4);
    const auto schedule = pcc.schedule(graph);
    std::vector<int> naive(graph.numInstructions(), 0);
    for (InstrId id = 0; id < graph.numInstructions(); ++id)
        if (graph.instr(id).preplaced())
            naive[id] = graph.instr(id).homeCluster;
    EXPECT_LE(pcc.estimate(graph, schedule.assignment()),
              pcc.estimate(graph, naive));
}

// The descent probes one cluster per class of empty clusters; a
// class must tell an unpreplaced memory operation's bank home apart
// from the other empty tiles.  The chain starts on tile 0, and tile 1
// (one hop from the home of bank 5) is the first empty tile probed.
TEST(Pcc, DescentFindsTheBankHomeAmongEmptyTiles)
{
    GraphBuilder builder;
    InstrId prev = builder.load(5);
    prev = builder.op(Opcode::IAdd, {prev});
    builder.op(Opcode::IAdd, {prev});
    const auto graph = builder.build();
    const RawMachine raw(4, 4);
    const auto schedule = PccScheduler(raw).schedule(graph);
    for (InstrId id = 0; id < graph.numInstructions(); ++id)
        EXPECT_EQ(schedule.clusterOf(id), raw.homeOfBank(5));
}

// ... and a slowed empty tile apart from a full-speed one: the chain
// starts on slowed tile 0, and the first empty tile probed is slowed
// too.
TEST(Pcc, DescentTellsSlowEmptyTilesFromFastOnes)
{
    GraphBuilder builder;
    InstrId prev = builder.op(Opcode::IAdd);
    for (int k = 0; k < 2; ++k)
        prev = builder.op(Opcode::IAdd, {prev});
    const auto graph = builder.build();
    auto machine = tryParseMachineSpec("raw4x4/faults=slow:0+1,factor:3");
    ASSERT_TRUE(machine.ok());
    const auto schedule = PccScheduler(**machine).schedule(graph);
    for (InstrId id = 0; id < graph.numInstructions(); ++id)
        EXPECT_EQ((*machine)->latencyFactor(schedule.clusterOf(id)), 1);
}

// Every placement and comm event of PCC on paper kernels, pinned to
// digests of the schedules the exhaustive descent produced (every
// free component probed on every alive cluster, each probe a full
// estimate).  The meshes leave most clusters empty, so these cells
// exercise the one-probe-per-class-of-empty-cluster shortcut; the
// faulted mesh adds dead and slowed tiles, which split the classes.
// fpppp-kernel on that mesh, where the descent keeps the most moves,
// runs in the slower tier (PccLargeMesh).
TEST(Pcc, MeshSchedulesMatchRecordedDigests)
{
    const char *const kFaulted = "raw8x8/faults=seed:2,tiles:5%,slow:20%";
    const RecordedDigest recorded[] = {
        {"vliw4", "tomcatv", 0x4f8c79a10e5ee91full},
        {"raw4x4", "fpppp-kernel", 0x1c5a531bbaf4e208ull},
        {"raw16x16", "mxm", 0xeb2d7f45b6ce5f8bull},
        {"raw16x16", "tomcatv", 0xc99e7a24f653d812ull},
        {kFaulted, "mxm", 0x5b66f5bd5542ddedull},
        {kFaulted, "tomcatv", 0x951707ae259e6814ull},
    };
    for (const auto &entry : recorded)
        expectRecordedDigest("pcc", entry);
}

} // namespace
} // namespace csched
