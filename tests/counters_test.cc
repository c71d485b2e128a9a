/**
 * @file
 * Unit tests for support/counters.hh: one X-macro list yields the
 * snapshot struct, the atomic twin and the stats() copy, and each
 * daemon's snapshot struct holds its list and nothing else.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "dist/remote_pool.hh"
#include "dist/workerd.hh"
#include "serve/server.hh"
#include "support/counters.hh"

namespace csched {
namespace {

#define CSCHED_TEST_COUNT(name) +1

// Each snapshot field comes from its list: no field lives outside it.
constexpr std::size_t kServeCounters =
    0 CSCHED_SERVE_COUNTERS(CSCHED_TEST_COUNT);
constexpr std::size_t kWorkerdCounters =
    0 CSCHED_WORKERD_COUNTERS(CSCHED_TEST_COUNT);
constexpr std::size_t kDistCounters =
    0 CSCHED_DIST_COUNTERS(CSCHED_TEST_COUNT);
static_assert(sizeof(ServeStats) == kServeCounters * sizeof(uint64_t));
static_assert(sizeof(WorkerdStats) ==
              kWorkerdCounters * sizeof(uint64_t));
static_assert(sizeof(DistStats) == kDistCounters * sizeof(uint64_t));

#define CSCHED_TEST_COUNTERS(X)                                         \
    X(first)                                                            \
    X(second)                                                           \
    X(third)                                                            \
    X(fourth)

struct TestStats
{
    CSCHED_TEST_COUNTERS(CSCHED_COUNTER_FIELD)
};

struct TestCounters
{
    CSCHED_TEST_COUNTERS(CSCHED_COUNTER_ATOMIC)
};

/** The stats() a daemon would generate from the test list. */
TestStats
snapshot(const TestCounters &counters_)
{
    TestStats out;
    CSCHED_TEST_COUNTERS(CSCHED_COUNTER_LOAD)
    return out;
}

TEST(Counters, SnapshotShowsExactlyWhatEachAtomicCounted)
{
    TestCounters counters;
    counters.first.fetch_add(1);
    counters.second.fetch_add(20);
    counters.third.fetch_add(300);
    counters.fourth.fetch_add(4000);
    counters.fourth.fetch_add(4000);
    const TestStats stats = snapshot(counters);
    EXPECT_EQ(stats.first, 1u);
    EXPECT_EQ(stats.second, 20u);
    EXPECT_EQ(stats.third, 300u);
    EXPECT_EQ(stats.fourth, 8000u);
}

} // namespace
} // namespace csched
