/**
 * @file
 * Unit tests for the support module: RNG, statistics, strings, tables,
 * backoff.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "runner/job.hh"
#include "support/backoff.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace csched {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int k = 0; k < 100; ++k)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int k = 0; k < 64; ++k)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformWithinUnitInterval)
{
    Rng rng(7);
    for (int k = 0; k < 1000; ++k) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRoughlyCentred)
{
    Rng rng(123);
    double sum = 0.0;
    const int draws = 20000;
    for (int k = 0; k < draws; ++k)
        sum += rng.uniform();
    EXPECT_NEAR(sum / draws, 0.5, 0.02);
}

TEST(Rng, RangeCoversAllValues)
{
    Rng rng(99);
    std::set<int> seen;
    for (int k = 0; k < 200; ++k)
        seen.insert(rng.range(5));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, BetweenIsInclusive)
{
    Rng rng(5);
    std::set<int> seen;
    for (int k = 0; k < 300; ++k) {
        const int v = rng.between(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int k = 0; k < 50; ++k) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({3.0, 3.0, 3.0}), 3.0, 1e-12);
}

TEST(Stats, GeomeanOfSpeedupsBetweenMinAndMax)
{
    const std::vector<double> v{1.5, 2.0, 7.0};
    const double g = geomean(v);
    EXPECT_GT(g, 1.5);
    EXPECT_LT(g, 7.0);
    EXPECT_LT(g, mean(v));  // AM-GM
}

TEST(Stats, PercentileNearestRank)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);

    // Unsorted input; nearest rank never interpolates, so every
    // answer is an actual sample.
    const std::vector<double> v{40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 20.0);
    EXPECT_DOUBLE_EQ(percentile(v, 75.0), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);

    // p50 agrees with the lower median on both parities.
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), median(v));
    const std::vector<double> odd{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(odd, 50.0), median(odd));
}

TEST(Stats, PercentileTailOfSyntheticLatencyLedger)
{
    // 100 replies: 1ms..100ms.  The load tool's p50/p95/p99 must pick
    // exact ranks out of such a merged ledger.
    std::vector<double> ledger;
    for (int i = 100; i >= 1; --i)
        ledger.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentile(ledger, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(ledger, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(percentile(ledger, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(ledger, 100.0), 100.0);
}

TEST(Stats, AccumulatorTracksMinMaxMean)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    acc.add(3.0);
    acc.add(-1.0);
    acc.add(8.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.min(), -1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 8.0);
    EXPECT_NEAR(acc.mean(), 10.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Str, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Str, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Str, ToUpper)
{
    EXPECT_EQ(toUpper("Comm"), "COMM");
    EXPECT_EQ(toUpper("level2"), "LEVEL2");
}

TEST(Str, Join)
{
    EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Str, FormatDouble)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(Str, ParseNonNegativeIntTakesOnlyWholeInRangeDecimals)
{
    EXPECT_EQ(parseNonNegativeInt("0"), 0);
    EXPECT_EQ(parseNonNegativeInt("007"), 7);
    EXPECT_EQ(parseNonNegativeInt("2147483647"), 2147483647);
    for (const char *bad : {"", "abc", "2x", "x2", "-1", "-0", "+1", " 1",
                            "1 ", "1.5", "2147483648", "4294967297"})
        EXPECT_EQ(parseNonNegativeInt(bad), std::nullopt) << bad;
}

TEST(Table, AlignsColumns)
{
    TablePrinter table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableDeathTest, RejectsMismatchedRow)
{
    TablePrinter table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only one"}), "row width");
}

// The delays below were recorded from the four separate recipes this
// one replaced (grid retry, dist reconnect, dist quarantine, serve
// degrade); each caller's parameterization must keep reproducing them.
TEST(Backoff, ReproducesTheRecordedDelayTable)
{
    // retryBackoffMs(key, attempt) for attempts 2..9.
    const std::pair<const char *, std::vector<int>> retry[] = {
        {"fir/vliw2/uas", {8, 20, 43, 61, 223, 118, 203, 188}},
        {"vvmul/vliw2/uas", {14, 16, 42, 52, 220, 189, 207, 256}},
        {"tomcatv/vliw4/convergent",
         {10, 19, 38, 55, 155, 118, 188, 129}},
    };
    for (const auto &[key, delays] : retry)
        for (int attempt = 2; attempt <= 9; ++attempt)
            EXPECT_EQ(retryBackoffMs(key, attempt),
                      delays[static_cast<size_t>(attempt - 2)])
                << key << " attempt " << attempt;

    // Dist reconnect for attempts 1..9 under (base, cap).
    const std::string endpoint = "127.0.0.1:7001";
    struct Reconnect
    {
        int base;
        int cap;
        std::vector<int> delays;
    };
    const Reconnect reconnect[] = {
        {50, 2000, {36, 59, 214, 364, 416, 1216, 1880, 2655, 1159}},
        {1, 1, {1, 1, 1, 1, 1, 1, 1, 1, 1}},
        {1, 5000, {1, 1, 4, 7, 8, 24, 60, 84, 37}},
        {100, 100000,
         {72, 118, 428, 728, 833, 2433, 6016, 8498, 3710}},
        {3, 7, {2, 3, 7, 6, 3, 5, 6, 9, 4}},
    };
    for (const auto &row : reconnect)
        for (int attempt = 1; attempt <= 9; ++attempt)
            EXPECT_EQ(jitteredBackoffMs("dist.reconnect/" + endpoint,
                                        attempt, row.base, row.cap,
                                        attempt - 1),
                      row.delays[static_cast<size_t>(attempt - 1)])
                << "base " << row.base << " cap " << row.cap
                << " attempt " << attempt;

    // Dist quarantine and serve degrade windows for trips 1..5.
    const std::pair<int, std::vector<int>> quarantine[] = {
        {2000, {2015, 1869, 1791, 1355, 1149}},
        {300, {302, 280, 268, 203, 172}},
        {1, {1, 1, 1, 1, 1}},
        {2, {2, 1, 1, 1, 1}},
    };
    for (const auto &[base, delays] : quarantine)
        for (int trip = 1; trip <= 5; ++trip)
            EXPECT_EQ(jitteredBackoffMs("dist.quarantine/" + endpoint,
                                        trip, base, base, 0),
                      delays[static_cast<size_t>(trip - 1)])
                << "base " << base << " trip " << trip;
    const std::pair<int, std::vector<int>> degrade[] = {
        {1000, {1074, 1336, 575, 1355, 834}},
        {60000, {64491, 80200, 34543, 81341, 50045}},
        {2, {2, 2, 1, 2, 1}},
    };
    for (const auto &[base, delays] : degrade)
        for (int trip = 1; trip <= 5; ++trip)
            EXPECT_EQ(jitteredBackoffMs("serve.degrade", trip, base,
                                        base, 0),
                      delays[static_cast<size_t>(trip - 1)])
                << "base " << base << " trip " << trip;
}

TEST(Backoff, NeverReturnsLessThanOneMillisecond)
{
    for (int n = 1; n <= 20; ++n) {
        EXPECT_GE(jitteredBackoffMs("serve.degrade", n, 1, 1, 0), 1);
        EXPECT_GE(jitteredBackoffMs("k", n, 0, 0, 3), 1);
    }
}

TEST(CrashLoopBreaker, TripsAtExactlyTheThreshold)
{
    CrashLoopBreaker breaker("serve.degrade", 3, 1000);
    uint64_t trips = 0;
    EXPECT_EQ(breaker.failure(), 0);
    EXPECT_EQ(breaker.failure(), 0);
    EXPECT_EQ(trips, 0u);
    trips += breaker.failure() > 0;
    EXPECT_EQ(trips, 1u);
    // The trip restarts the run: the next trip needs three more.
    EXPECT_EQ(breaker.failure(), 0);
    EXPECT_EQ(breaker.failure(), 0);
    trips += breaker.failure() > 0;
    EXPECT_EQ(trips, 2u);
}

TEST(CrashLoopBreaker, SuccessResetsTheRun)
{
    CrashLoopBreaker breaker("serve.degrade", 2, 1000);
    uint64_t trips = 0;
    for (int k = 0; k < 5; ++k) {
        trips += breaker.failure() > 0;
        breaker.success();
    }
    EXPECT_EQ(trips, 0u);
    EXPECT_EQ(breaker.failure(), 0);
    trips += breaker.failure() > 0;
    EXPECT_EQ(trips, 1u);
}

TEST(CrashLoopBreaker, CooldownOfTripNIsTheJitteredBackoffOfN)
{
    // Both production keys: serve's degraded window and a dist host's
    // quarantine.
    for (const auto &[key, cooldown] :
         std::vector<std::pair<std::string, int>>{
             {"serve.degrade", 1000},
             {"serve.degrade", 60000},
             {"dist.quarantine/127.0.0.1:7001", 2000},
             {"dist.quarantine/127.0.0.1:7001", 300}}) {
        CrashLoopBreaker breaker(key, 2, cooldown);
        for (uint64_t trip = 1; trip <= 5; ++trip) {
            EXPECT_EQ(breaker.failure(), 0);
            EXPECT_EQ(breaker.failure(),
                      jitteredBackoffMs(key, trip, cooldown, cooldown, 0))
                << key << " trip " << trip;
        }
    }
}

TEST(CrashLoopBreaker, ConcurrentFailuresTripOncePerThreshold)
{
    // One run of failures reported from many threads: no trip is lost
    // or double-counted, whatever the interleaving.
    constexpr int kThreads = 8;
    constexpr int kFailures = 250;
    constexpr int kThreshold = 3;
    CrashLoopBreaker breaker("serve.degrade", kThreshold, 1000);
    std::vector<std::thread> threads;
    std::vector<int> trips(kThreads, 0);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&breaker, &trips, t] {
            for (int k = 0; k < kFailures; ++k)
                trips[static_cast<size_t>(t)] += breaker.failure() > 0;
        });
    for (std::thread &thread : threads)
        thread.join();
    const uint64_t expected = kThreads * kFailures / kThreshold;
    int observed = 0;
    for (const int n : trips)
        observed += n;
    EXPECT_EQ(static_cast<uint64_t>(observed), expected);
}

} // namespace
} // namespace csched
