/**
 * @file
 * Unit tests for the FU and link reservation tables.
 */

#include <gtest/gtest.h>

#include "machine/clustered_vliw.hh"
#include "sched/reservation.hh"

namespace csched {
namespace {

TEST(FuReservation, TakeAndFree)
{
    const ClusteredVliwMachine vliw(2);
    FuReservation fus(vliw);
    EXPECT_TRUE(fus.free(0, 0, 5));
    fus.take(0, 0, 5);
    EXPECT_FALSE(fus.free(0, 0, 5));
    EXPECT_TRUE(fus.free(0, 0, 4));
    EXPECT_TRUE(fus.free(0, 1, 5));
    EXPECT_TRUE(fus.free(1, 0, 5));
}

TEST(FuReservation, FreeFuForRespectsCapability)
{
    const ClusteredVliwMachine vliw(1);
    FuReservation fus(vliw);
    // Loads only run on the IntAluMem unit (index 1).
    EXPECT_EQ(fus.freeFuFor(0, Opcode::Load, 0), 1);
    fus.take(0, 1, 0);
    EXPECT_EQ(fus.freeFuFor(0, Opcode::Load, 0), -1);
    // Plain integer ops can still use the IntAlu (index 0).
    EXPECT_EQ(fus.freeFuFor(0, Opcode::IAdd, 0), 0);
}

TEST(FuReservation, EarliestForSkipsBusySlots)
{
    const ClusteredVliwMachine vliw(1);
    FuReservation fus(vliw);
    fus.take(0, 2, 4);  // FPU busy at cycle 4
    const auto [cycle, fu] = fus.earliestFor(0, Opcode::FMul, 4);
    EXPECT_EQ(cycle, 5);
    EXPECT_EQ(fu, 2);
}

TEST(FuReservationDeathTest, IncapableClusterPanics)
{
    // A machine whose cluster cannot execute Copy... the VLIW can,
    // so query an op no FU supports: none, actually -- instead check
    // double-take.
    const ClusteredVliwMachine vliw(1);
    FuReservation fus(vliw);
    fus.take(0, 0, 0);
    EXPECT_DEATH(fus.take(0, 0, 0), "already taken");
}

TEST(LinkReservation, RouteSlotSearch)
{
    LinkReservation links(4);
    const std::vector<int> route{0, 1, 2};
    EXPECT_EQ(links.earliestRouteSlot(route, 3), 3);
    links.takeRoute(route, 3);
    // Slots 0@3, 1@4, 2@5 now busy; send at 3 impossible.
    EXPECT_FALSE(links.free(0, 3));
    EXPECT_FALSE(links.free(1, 4));
    EXPECT_FALSE(links.free(2, 5));
    EXPECT_EQ(links.earliestRouteSlot(route, 3), 4);
}

TEST(LinkReservation, StaggeredRoutesInterleave)
{
    LinkReservation links(2);
    const std::vector<int> route{0, 1};
    links.takeRoute(route, 0);  // 0@0, 1@1
    // A second message can enter link 0 at cycle 1 (pipelining).
    EXPECT_EQ(links.earliestRouteSlot(route, 0), 1);
    links.takeRoute(route, 1);
    EXPECT_EQ(links.earliestRouteSlot(route, 0), 2);
}

} // namespace
} // namespace csched
