/**
 * @file
 * Unit tests for the machine models: clustered VLIW, Raw mesh, and the
 * uniform Figure-1 machine.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "machine/clustered_vliw.hh"
#include "machine/fault_map.hh"
#include "machine/machine_spec.hh"
#include "machine/raw_machine.hh"
#include "machine/single_cluster.hh"

namespace csched {
namespace {

TEST(ClusteredVliw, HasFourFusPerCluster)
{
    const ClusteredVliwMachine vliw(4);
    EXPECT_EQ(vliw.numClusters(), 4);
    const auto &fus = vliw.clusterFus(0);
    ASSERT_EQ(fus.size(), 4u);
    EXPECT_EQ(fus[0], FuKind::IntAlu);
    EXPECT_EQ(fus[1], FuKind::IntAluMem);
    EXPECT_EQ(fus[2], FuKind::Fpu);
    EXPECT_EQ(fus[3], FuKind::Transfer);
}

TEST(ClusteredVliw, Capabilities)
{
    const ClusteredVliwMachine vliw(2);
    EXPECT_TRUE(vliw.canExecute(0, Opcode::FAdd));
    EXPECT_TRUE(vliw.canExecute(1, Opcode::Load));
    auto fus_for = [&](Opcode op) {
        const auto &fus = vliw.clusterFus(0);
        return std::count_if(fus.begin(), fus.end(), [op](FuKind fu) {
            return fuCanExecute(fu, op);
        });
    };
    EXPECT_EQ(fus_for(Opcode::IAdd), 2);  // IntAlu + IntAluMem
    EXPECT_EQ(fus_for(Opcode::Load), 1);
    EXPECT_EQ(fus_for(Opcode::FMul), 1);
}

TEST(ClusteredVliw, CommunicationModel)
{
    const ClusteredVliwMachine vliw(4);
    EXPECT_EQ(vliw.commStyle(), CommStyle::TransferUnit);
    EXPECT_EQ(vliw.commLatency(1, 1), 0);
    EXPECT_EQ(vliw.commLatency(0, 3), 1);
}

TEST(ClusteredVliw, MemoryBankInterleaving)
{
    const ClusteredVliwMachine vliw(4);
    EXPECT_EQ(vliw.homeOfBank(0), 0);
    EXPECT_EQ(vliw.homeOfBank(7), 3);
    EXPECT_EQ(vliw.memoryPenalty(2, 2), 0);
    EXPECT_EQ(vliw.memoryPenalty(2, 1), 1);  // remote: one cycle
    EXPECT_EQ(vliw.memoryPenalty(-1, 1), 0); // unanalysable: local
}

TEST(ClusteredVliw, SingleClusterSibling)
{
    const ClusteredVliwMachine vliw(4);
    const auto single = vliw.makeSingleCluster();
    EXPECT_EQ(single->numClusters(), 1);
    EXPECT_EQ(single->commStyle(), CommStyle::TransferUnit);
}

TEST(RawMachine, MeshGeometry)
{
    const RawMachine raw(4, 4);
    EXPECT_EQ(raw.numClusters(), 16);
    EXPECT_EQ(raw.rowOf(5), 1);
    EXPECT_EQ(raw.colOf(5), 1);
    EXPECT_EQ(raw.tileAt(3, 2), 14);
    EXPECT_EQ(raw.distance(0, 15), 6);
    EXPECT_EQ(raw.distance(5, 6), 1);
}

TEST(RawMachine, WithTilesFactorisesSquarely)
{
    EXPECT_EQ(RawMachine::withTiles(16).rows(), 4);
    EXPECT_EQ(RawMachine::withTiles(16).cols(), 4);
    EXPECT_EQ(RawMachine::withTiles(8).rows(), 2);
    EXPECT_EQ(RawMachine::withTiles(8).cols(), 4);
    EXPECT_EQ(RawMachine::withTiles(2).rows(), 1);
    EXPECT_EQ(RawMachine::withTiles(2).cols(), 2);
    EXPECT_EQ(RawMachine::withTiles(1).numClusters(), 1);
}

TEST(RawMachine, StaticNetworkLatency)
{
    const RawMachine raw(4, 4);
    EXPECT_EQ(raw.commStyle(), CommStyle::Network);
    EXPECT_EQ(raw.commLatency(0, 0), 0);
    // Three cycles between neighbours...
    EXPECT_EQ(raw.commLatency(0, 1), 3);
    // ...plus one per additional hop.
    EXPECT_EQ(raw.commLatency(0, 2), 4);
    EXPECT_EQ(raw.commLatency(0, 15), 8);
}

TEST(RawMachine, RoutesAreDimensionOrdered)
{
    const RawMachine raw(4, 4);
    // 0 (0,0) -> 10 (2,2): two hops east then two south.
    const auto route = raw.route(0, 10);
    ASSERT_EQ(route.size(), 4u);
    // Link ids encode (tile, direction): east = 0, south = 2.
    EXPECT_EQ(route[0], 0 * 4 + 0);
    EXPECT_EQ(route[1], 1 * 4 + 0);
    EXPECT_EQ(route[2], 2 * 4 + 2);
    EXPECT_EQ(route[3], 6 * 4 + 2);
}

TEST(RawMachine, RouteLengthEqualsManhattanDistance)
{
    const RawMachine raw(2, 4);
    for (int a = 0; a < raw.numClusters(); ++a)
        for (int b = 0; b < raw.numClusters(); ++b)
            EXPECT_EQ(raw.route(a, b).size(),
                      static_cast<size_t>(raw.distance(a, b)));
}

TEST(RawMachine, TilesAreUniversal)
{
    const RawMachine raw(2, 2);
    ASSERT_EQ(raw.clusterFus(0).size(), 1u);
    EXPECT_EQ(raw.clusterFus(0)[0], FuKind::Universal);
    EXPECT_TRUE(raw.canExecute(3, Opcode::FSqrt));
    EXPECT_TRUE(raw.canExecute(3, Opcode::Store));
}

TEST(RawMachine, RemoteMemoryIsExpensive)
{
    const RawMachine raw(4, 4);
    EXPECT_EQ(raw.memoryPenalty(3, 3), 0);
    // Dynamic-network round trip: base 6 plus 2 per hop.
    EXPECT_EQ(raw.memoryPenalty(1, 0), 8);
    EXPECT_GT(raw.memoryPenalty(15, 0), raw.memoryPenalty(1, 0));
}

TEST(RawMachine, SingleClusterSibling)
{
    const auto single = RawMachine(4, 4).makeSingleCluster();
    EXPECT_EQ(single->numClusters(), 1);
}

TEST(UniformMachine, ReceiveStyleComm)
{
    const UniformMachine uniform(3, 1, 1);
    EXPECT_EQ(uniform.numClusters(), 3);
    EXPECT_EQ(uniform.commStyle(), CommStyle::ReceiveOp);
    EXPECT_EQ(uniform.commLatency(0, 2), 1);
    EXPECT_TRUE(uniform.canExecute(0, Opcode::Recv));
    EXPECT_TRUE(uniform.canExecute(0, Opcode::FMul));
}

TEST(UniformMachine, Names)
{
    EXPECT_EQ(UniformMachine(3, 1, 1).name(), "uniform3x1");
    EXPECT_EQ(ClusteredVliwMachine(4).name(), "vliw4");
    EXPECT_EQ(RawMachine(4, 4).name(), "raw4x4");
}

TEST(FaultSpec, ParsesPercentagesAndFactor)
{
    const auto spec =
        FaultSpec::parse("seed:7,tiles:5%,links:3%,slow:10%,factor:3");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    EXPECT_EQ(spec->seed, 7u);
    EXPECT_EQ(spec->tilesPct, 5);
    EXPECT_EQ(spec->linksPct, 3);
    EXPECT_EQ(spec->slowPct, 10);
    EXPECT_EQ(spec->slowFactor, 3);
    EXPECT_FALSE(spec->empty());
}

TEST(FaultSpec, ParsesExplicitIdLists)
{
    const auto spec = FaultSpec::parse("tiles:3+7,slow:1");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    EXPECT_EQ(spec->tiles, (std::vector<int>{3, 7}));
    EXPECT_EQ(spec->slow, (std::vector<int>{1}));
    EXPECT_EQ(spec->tilesPct, 0);
}

TEST(FaultSpec, RejectsMalformedInput)
{
    EXPECT_FALSE(FaultSpec::parse("").ok());
    EXPECT_FALSE(FaultSpec::parse("tiles:150%").ok());
    EXPECT_FALSE(FaultSpec::parse("tiles:abc").ok());
    EXPECT_FALSE(FaultSpec::parse("bogus:5%").ok());
    EXPECT_FALSE(FaultSpec::parse("tiles").ok());
    EXPECT_FALSE(FaultSpec::parse("factor:1").ok());
    EXPECT_FALSE(FaultSpec::parse("factor:17").ok());
}

TEST(FaultSpec, MaterializeIsDeterministicAndBounded)
{
    const auto spec = FaultSpec::parse("seed:11,tiles:25%");
    ASSERT_TRUE(spec.ok());
    const auto first = spec->materialize(16, {}, 0);
    const auto second = spec->materialize(16, {}, 0);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->deadCluster, second->deadCluster);
    int dead = 0;
    for (uint8_t d : first->deadCluster)
        dead += d != 0 ? 1 : 0;
    EXPECT_EQ(dead, 4);  // 25% of 16
}

TEST(FaultSpec, MaterializeRejectsBadIdsAndTotalLoss)
{
    const auto out_of_range = FaultSpec::parse("tiles:16");
    ASSERT_TRUE(out_of_range.ok());
    EXPECT_FALSE(out_of_range->materialize(16, {}, 0).ok());

    const auto kill_all = FaultSpec::parse("tiles:0");
    ASSERT_TRUE(kill_all.ok());
    EXPECT_FALSE(kill_all->materialize(1, {}, 0).ok());
}

TEST(FaultIndex, RemapsDeadClustersToAliveOnes)
{
    const auto spec = FaultSpec::parse("tiles:1");
    ASSERT_TRUE(spec.ok());
    auto map = spec->materialize(4, {}, 0);
    ASSERT_TRUE(map.ok());
    const FaultIndex index = FaultIndex::build(std::move(*map), 4);
    EXPECT_EQ(index.alive, (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(index.remap[0], 0);
    EXPECT_EQ(index.remap[1], index.alive[1 % 3]);  // dead -> alive
    EXPECT_EQ(index.remap[2], 2);
}

TEST(DegradedVliw, SkipsDeadClustersAndRemapsBanks)
{
    const auto machine = tryParseMachineSpec("vliw4/faults=tiles:1");
    ASSERT_TRUE(machine.ok()) << machine.status().toString();
    EXPECT_TRUE((*machine)->degraded());
    EXPECT_EQ((*machine)->numClusters(), 4);
    EXPECT_EQ((*machine)->numAliveClusters(), 3);
    EXPECT_FALSE((*machine)->clusterAlive(1));
    EXPECT_FALSE((*machine)->canExecute(1, Opcode::IAdd));
    EXPECT_EQ((*machine)->firstAliveCluster(), 0);
    // Bank 1 is homed on the dead cluster 1; it moves to the remap
    // target, so homeOfBank never names a dead cluster.
    EXPECT_EQ((*machine)->homeOfBank(1), (*machine)->remapToAlive(1));
    EXPECT_TRUE((*machine)->clusterAlive((*machine)->homeOfBank(1)));
}

TEST(DegradedVliw, SlowedClustersStretchLatency)
{
    const auto machine =
        tryParseMachineSpec("vliw2/faults=slow:1,factor:3");
    ASSERT_TRUE(machine.ok()) << machine.status().toString();
    EXPECT_EQ((*machine)->latencyFactor(0), 1);
    EXPECT_EQ((*machine)->latencyFactor(1), 3);
    EXPECT_EQ((*machine)->execLatency(1, 2), 6);
    EXPECT_EQ((*machine)->numAliveClusters(), 2);  // slow != dead
}

TEST(DegradedRaw, RoutesDetourAroundDeadTiles)
{
    // Kill tile 5 on a 4x4 mesh: the X-then-Y route 4 -> 5 -> 6 is
    // blocked, so the route must detour (4 hops instead of 2).
    const auto spec = FaultSpec::parse("tiles:5");
    ASSERT_TRUE(spec.ok());
    auto map = spec->materialize(16, RawMachine::interiorLinks(4, 4),
                                 16 * 4);
    ASSERT_TRUE(map.ok());
    const auto machine = RawMachine::tryCreate(4, 4, std::move(*map));
    ASSERT_TRUE(machine.ok()) << machine.status().toString();
    const RawMachine &raw = **machine;

    const RawMachine pristine(4, 4);
    EXPECT_EQ(pristine.commLatency(4, 6), 4);  // 3 + (2 hops - 1)
    EXPECT_EQ(raw.commLatency(4, 6), 6);       // 3 + (4 hops - 1)

    const auto route = raw.route(4, 6);
    ASSERT_EQ(route.size(), 4u);
    for (int link : route) {
        EXPECT_TRUE(raw.linkAlive(link));
        EXPECT_NE(link / 4, 5);  // no link leaves the dead tile
    }
    // Routes between alive tiles off the blocked path are unchanged.
    EXPECT_EQ(raw.route(0, 3), pristine.route(0, 3));
}

TEST(DegradedRaw, DeadDirectedLinkIsOneWay)
{
    // Kill only the eastbound link out of tile 0 (id 0*4+0): 0 -> 1
    // must detour, 1 -> 0 still uses the direct westbound link.
    const auto spec = FaultSpec::parse("links:0");
    ASSERT_TRUE(spec.ok());
    auto map = spec->materialize(16, RawMachine::interiorLinks(4, 4),
                                 16 * 4);
    ASSERT_TRUE(map.ok());
    const auto machine = RawMachine::tryCreate(4, 4, std::move(*map));
    ASSERT_TRUE(machine.ok()) << machine.status().toString();
    EXPECT_EQ((*machine)->route(0, 1).size(), 3u);  // 0 -> 4 -> 5 -> 1
    EXPECT_EQ((*machine)->commLatency(0, 1), 5);
    EXPECT_EQ((*machine)->route(1, 0).size(), 1u);
    EXPECT_EQ((*machine)->commLatency(1, 0), 3);
}

TEST(DegradedRaw, FirstHopLatencySkipsDeadTiles)
{
    EXPECT_EQ(RawMachine(4, 4).firstHopLatency(), 3);
    // Tiles 0 and 1 dead: the hop from tile 2 to tile 3.  Killing the
    // eastbound link out of tile 2 too makes that hop detour.
    auto machine = tryParseMachineSpec("raw4x4/faults=tiles:0+1,links:8");
    ASSERT_TRUE(machine.ok()) << machine.status().toString();
    EXPECT_EQ((*machine)->firstHopLatency(), 5);
    EXPECT_EQ((*machine)->firstHopLatency(), (*machine)->commLatency(2, 3));
    EXPECT_EQ(ClusteredVliwMachine(1).firstHopLatency(), 1);
}

TEST(DegradedRaw, DisconnectedMeshIsRejected)
{
    // Killing tiles 1 and 2 on a 2x2 mesh leaves 0 and 3 with no
    // alive path between them.
    EXPECT_FALSE(tryParseMachineSpec("raw2x2/faults=tiles:1+2").ok());
    const auto status =
        tryParseMachineSpec("raw2x2/faults=tiles:1+2").status();
    EXPECT_EQ(status.code(), ErrorCode::InvalidSpec);
}

TEST(MachineSpec, ParsesFaultSuffixes)
{
    EXPECT_TRUE(tryParseMachineSpec("raw8x8/faults=seed:7,tiles:5%,links:3%")
                    .ok());
    EXPECT_TRUE(tryParseMachineSpec("vliw8/faults=seed:1,clusters:25%").ok());
    // Link faults need a mesh.
    EXPECT_FALSE(tryParseMachineSpec("vliw4/faults=links:5%").ok());
    EXPECT_FALSE(tryParseMachineSpec("raw4x4/garbage=1").ok());
    EXPECT_FALSE(tryParseMachineSpec("raw4x4/faults=tiles:999").ok());
}

TEST(MachineSpec, ExtraDeadClustersDegradeTheMachine)
{
    const auto machine = tryParseMachineSpec("raw4x4", {5, 6});
    ASSERT_TRUE(machine.ok()) << machine.status().toString();
    EXPECT_EQ((*machine)->numAliveClusters(), 14);
    EXPECT_FALSE((*machine)->clusterAlive(5));
    EXPECT_FALSE((*machine)->clusterAlive(6));
    EXPECT_FALSE(tryParseMachineSpec("vliw2", {-1}).ok());
}

TEST(MachineSpec, SplitMachineListRestitchesFaultCommas)
{
    const auto specs = splitMachineList(
        "raw4x4,raw8x8/faults=seed:7,tiles:5%,links:3%,vliw4");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0], "raw4x4");
    EXPECT_EQ(specs[1], "raw8x8/faults=seed:7,tiles:5%,links:3%");
    EXPECT_EQ(specs[2], "vliw4");

    // Invalid parts pass through so the caller's validation reports.
    const auto bad = splitMachineList("bogus,raw4");
    ASSERT_EQ(bad.size(), 2u);
    EXPECT_EQ(bad[0], "bogus");
    EXPECT_EQ(bad[1], "raw4");
}

TEST(MachineDeathTest, InvalidClusterQueries)
{
    const ClusteredVliwMachine vliw(2);
    EXPECT_DEATH(vliw.clusterFus(2), "out of range");
    const RawMachine raw(2, 2);
    EXPECT_DEATH(raw.clusterFus(-1), "out of range");
}

} // namespace
} // namespace csched
