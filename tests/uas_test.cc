/**
 * @file
 * Tests for the UAS baseline: legality, preplacement handling, and
 * its strictly forward-in-time copy behaviour.
 */

#include <gtest/gtest.h>

#include "baseline/uas.hh"
#include "ir/graph_algorithms.hh"
#include "ir/graph_builder.hh"
#include "machine/clustered_vliw.hh"
#include "machine/raw_machine.hh"
#include "sched/schedule_checker.hh"
#include "schedule_digest.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

TEST(Uas, LegalOnVliwKernels)
{
    const ClusteredVliwMachine vliw(4);
    const UasScheduler uas(vliw);
    for (const char *name : {"vvmul", "fir", "yuv"}) {
        const auto graph = findWorkload(name).build(4, 4);
        const auto schedule = uas.schedule(graph);
        const auto check = checkSchedule(graph, vliw, schedule);
        EXPECT_TRUE(check.ok()) << name << ": " << check.message();
    }
}

TEST(Uas, LegalOnRawKernels)
{
    const auto raw = RawMachine::withTiles(4);
    const UasScheduler uas(raw);
    const auto graph = findWorkload("jacobi").build(4, 4);
    const auto schedule = uas.schedule(graph);
    const auto check = checkSchedule(graph, raw, schedule);
    EXPECT_TRUE(check.ok()) << check.message();
}

TEST(Uas, RespectsPreplacement)
{
    const ClusteredVliwMachine vliw(4);
    const UasScheduler uas(vliw);
    const auto graph = findWorkload("mxm").build(4, 4);
    const auto schedule = uas.schedule(graph);
    for (InstrId id = 0; id < graph.numInstructions(); ++id) {
        const auto &instr = graph.instr(id);
        if (instr.preplaced()) {
            EXPECT_EQ(schedule.clusterOf(id), instr.homeCluster);
        }
    }
}

TEST(Uas, SerialChainStaysLocal)
{
    GraphBuilder builder;
    InstrId prev = builder.op(Opcode::IAdd);
    for (int k = 0; k < 5; ++k)
        prev = builder.op(Opcode::IAdd, {prev});
    const auto graph = builder.build();
    const ClusteredVliwMachine vliw(4);
    const UasScheduler uas(vliw);
    const auto schedule = uas.schedule(graph);
    // A pure chain gains nothing from spreading: no communication.
    EXPECT_TRUE(schedule.comms().empty());
    EXPECT_EQ(schedule.makespan(), 6);
}

TEST(Uas, CopiesAreForwardInTime)
{
    const ClusteredVliwMachine vliw(4);
    const UasScheduler uas(vliw);
    const auto graph = findWorkload("fir").build(4, 4);
    const auto schedule = uas.schedule(graph);
    for (const auto &event : schedule.comms()) {
        // A UAS copy departs no earlier than its producer's finish and
        // arrives before (or when) some consumer needs it; the checker
        // verifies the details -- here we assert the UAS-specific
        // property that copies never start before cycle 0 and always
        // take the machine latency.
        EXPECT_GE(event.start,
                  schedule.at(event.producer).finish);
        EXPECT_EQ(event.arrive - event.start,
                  vliw.commLatency(event.fromCluster, event.toCluster));
    }
}

TEST(Uas, ExploitsParallelismAcrossClusters)
{
    GraphBuilder builder;
    // Eight independent FMuls: one FPU per cluster, so spreading
    // across 4 clusters must beat a single cluster.
    for (int k = 0; k < 8; ++k)
        builder.op(Opcode::FMul);
    const auto graph = builder.build();
    const ClusteredVliwMachine vliw(4);
    const UasScheduler uas(vliw);
    const auto schedule = uas.schedule(graph);
    EXPECT_LE(schedule.makespan(), 6);  // 2 rounds of 4, latency 4
    int used = 0;
    for (int c = 0; c < 4; ++c)
        used += schedule.clusterLoad(c) > 0 ? 1 : 0;
    EXPECT_EQ(used, 4);
}

// Every placement and comm event of UAS on three paper kernels, pinned
// to digests of the schedules the original cycle loop produced (a full
// stable sort of the ready list and of every candidate's clusters).
// vliw4 takes the transfer-unit copy path; the meshes take the network
// path, with and without dead tiles and links.
TEST(Uas, MeshSchedulesMatchRecordedDigests)
{
    const char *const kFaulted = "raw16x16/faults=seed:1,tiles:10%,links:3%";
    const RecordedDigest recorded[] = {
        {"vliw4", "mxm", 0xa38edc8c3aebe356ull},
        {"vliw4", "tomcatv", 0xe1afc1bc21bff058ull},
        {"vliw4", "fpppp-kernel", 0xe75218a2ab920941ull},
        {"raw16x16", "mxm", 0xae91cd52a3cd9d77ull},
        {"raw16x16", "tomcatv", 0xbd8eeff9329729a8ull},
        {"raw16x16", "fpppp-kernel", 0x95685c743bf52a21ull},
        {kFaulted, "mxm", 0x181d668c5808598bull},
        {kFaulted, "tomcatv", 0x93e9e1ae90a5f697ull},
        {kFaulted, "fpppp-kernel", 0x9676b7577ac8d980ull},
    };
    for (const auto &entry : recorded)
        expectRecordedDigest("uas", entry);
}

} // namespace
} // namespace csched
