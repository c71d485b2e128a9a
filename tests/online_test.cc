/**
 * @file
 * Tests for the online region-stream subsystem: deterministic arrival
 * generators and trace round-trips, the commit loop's contracts
 * (t=0 equivalence with the offline convergent scheduler, lazy
 * irrevocability, preempt-and-recommit), timeline scoring, and the
 * grid integration's byte-identity and resume guarantees.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "eval/experiment.hh"
#include "eval/online_metrics.hh"
#include "machine/machine_spec.hh"
#include "online/arrival.hh"
#include "online/online_scheduler.hh"
#include "online/policy.hh"
#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "runner/shutdown.hh"
#include "support/fault_injection.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->test_suite_name() + "-" +
           info->name() + "-" + name;
}

std::vector<RegionArrival>
mustGenerate(const std::string &text)
{
    std::string error;
    const auto spec = parseStreamSpec(text, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    auto arrivals = generateArrivals(*spec);
    EXPECT_TRUE(arrivals.ok()) << arrivals.status().toString();
    return *arrivals;
}

OnlinePolicySpec
mustParsePolicy(const std::string &text)
{
    std::string error;
    const auto policy = parseOnlinePolicy(text, &error);
    EXPECT_TRUE(policy.has_value()) << error;
    return policy.value_or(OnlinePolicySpec());
}

std::string
deterministicJson(const GridReport &report)
{
    ReportOptions options;
    options.timings = false;
    return gridReportToJson(report, options);
}

TEST(ArrivalStream, SeededGeneratorIsDeterministic)
{
    const std::string text =
        "stream:poisson:n=20:seed=9:mean-gap=300:max-weight=5:"
        "workloads=fir+vvmul";
    const auto first = mustGenerate(text);
    const auto second = mustGenerate(text);
    ASSERT_EQ(first.size(), 20u);
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].id, static_cast<int>(i));
        EXPECT_EQ(first[i].workload, second[i].workload);
        EXPECT_EQ(first[i].release, second[i].release);
        EXPECT_EQ(first[i].weight, second[i].weight);
        EXPECT_GE(first[i].weight, 1);
        EXPECT_LE(first[i].weight, 5);
        if (i > 0)
            EXPECT_GE(first[i].release, first[i - 1].release);
    }

    // A different seed must actually change the stream.
    const auto other = mustGenerate(
        "stream:poisson:n=20:seed=10:mean-gap=300:max-weight=5:"
        "workloads=fir+vvmul");
    bool differs = false;
    for (size_t i = 0; i < other.size(); ++i)
        differs = differs || other[i].release != first[i].release ||
                  other[i].weight != first[i].weight;
    EXPECT_TRUE(differs);
}

TEST(ArrivalStream, BurstyGeneratorSharesReleasesWithinABurst)
{
    const auto arrivals = mustGenerate(
        "stream:bursty:n=8:seed=3:gap=1000:burst=4:workloads=fir");
    ASSERT_EQ(arrivals.size(), 8u);
    // Two bursts of four: releases equal within a burst and jump by
    // the configured gap between bursts.
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(arrivals[i].release, arrivals[0].release);
    for (int i = 5; i < 8; ++i)
        EXPECT_EQ(arrivals[i].release, arrivals[4].release);
    EXPECT_EQ(arrivals[4].release - arrivals[0].release, 1000);
}

TEST(ArrivalStream, TraceRoundTripsByteIdentically)
{
    std::string error;
    const auto spec = parseStreamSpec(
        "stream:poisson:n=6:seed=4:mean-gap=100:deadline-gap=5000:"
        "workloads=fir+vvmul",
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    const auto arrivals = generateArrivals(*spec);
    ASSERT_TRUE(arrivals.ok());

    const std::string text = streamTraceText(*spec, *arrivals);
    const auto parsed = parseStreamTrace(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed->size(), arrivals->size());
    for (size_t i = 0; i < parsed->size(); ++i) {
        EXPECT_EQ((*parsed)[i].id, (*arrivals)[i].id);
        EXPECT_EQ((*parsed)[i].workload, (*arrivals)[i].workload);
        EXPECT_EQ((*parsed)[i].release, (*arrivals)[i].release);
        EXPECT_EQ((*parsed)[i].weight, (*arrivals)[i].weight);
        EXPECT_EQ((*parsed)[i].deadline, (*arrivals)[i].deadline);
        EXPECT_GT((*parsed)[i].deadline, 0);  // deadline-gap was set
    }

    // And the file-backed trace kind loads the same stream.
    const std::string path = tempPath("trace.jsonl");
    {
        std::ofstream out(path);
        out << text;
    }
    const auto replayed =
        mustGenerate("stream:trace:file=" + path);
    ASSERT_EQ(replayed.size(), arrivals->size());
    for (size_t i = 0; i < replayed.size(); ++i) {
        EXPECT_EQ(replayed[i].release, (*arrivals)[i].release);
        EXPECT_EQ(replayed[i].weight, (*arrivals)[i].weight);
    }
}

TEST(ArrivalStream, RejectsMalformedSpecsAndTraces)
{
    std::string error;
    EXPECT_FALSE(parseStreamSpec("stream:noise:n=4", &error));
    EXPECT_FALSE(parseStreamSpec("stream:poisson:n=0", &error));
    EXPECT_FALSE(
        parseStreamSpec("stream:poisson:n=4:workloads=nosuch", &error));
    EXPECT_FALSE(parseStreamSpec("stream:trace", &error));
    EXPECT_FALSE(isStreamWorkload("fir"));
    EXPECT_TRUE(isStreamWorkload("stream:poisson:n=4"));

    // Non-dense ids.
    const std::string bad_ids =
        "{\"schema\": \"csched-stream-v1\", \"spec\": \"x\", "
        "\"count\": 1}\n"
        "{\"id\": 3, \"workload\": \"fir\", \"release\": 0, "
        "\"weight\": 1, \"deadline\": -1}\n";
    EXPECT_FALSE(parseStreamTrace(bad_ids).ok());

    // Decreasing releases.
    const std::string bad_order =
        "{\"schema\": \"csched-stream-v1\", \"spec\": \"x\", "
        "\"count\": 2}\n"
        "{\"id\": 0, \"workload\": \"fir\", \"release\": 10, "
        "\"weight\": 1, \"deadline\": -1}\n"
        "{\"id\": 1, \"workload\": \"fir\", \"release\": 5, "
        "\"weight\": 1, \"deadline\": -1}\n";
    EXPECT_FALSE(parseStreamTrace(bad_order).ok());
}

TEST(OnlinePolicy, ParsesNamesAndOptions)
{
    for (const std::string &name : knownOnlinePolicyNames()) {
        EXPECT_TRUE(isOnlinePolicyName(name)) << name;
        const auto policy = mustParsePolicy(name);
        EXPECT_EQ(policy.name, name);
    }
    EXPECT_FALSE(isOnlinePolicyName("convergent"));
    EXPECT_TRUE(isOnlinePolicyName("online-convergent:budget-ms=50"));

    const auto tuned = mustParsePolicy(
        "online-convergent:budget-ms=250:preempt-factor=3.5");
    EXPECT_TRUE(tuned.planAhead);
    EXPECT_EQ(tuned.decisionBudgetMs, 250);
    EXPECT_DOUBLE_EQ(tuned.preemptFactor, 3.5);

    std::string error;
    EXPECT_FALSE(parseOnlinePolicy("online-nope", &error));
    EXPECT_FALSE(
        parseOnlinePolicy("online-convergent:preempt-factor=0.5", &error));
    EXPECT_FALSE(parseOnlinePolicy("online-uas:budget-ms=-1", &error));
}

/**
 * The anchor contract: with every region released at t=0 and equal
 * weights, online-convergent degenerates to the offline convergent
 * scheduler run per region -- identical placements, cycle for cycle.
 */
TEST(OnlineScheduler, MatchesOfflineConvergentAtTimeZero)
{
    const auto machine = parseMachineSpec("vliw4");
    ASSERT_NE(machine, nullptr);

    const std::vector<std::string> names = {"vvmul", "fir", "jacobi"};
    std::vector<RegionArrival> arrivals;
    for (size_t i = 0; i < names.size(); ++i)
        arrivals.push_back(RegionArrival{static_cast<int>(i), names[i],
                                         /*release=*/0, /*weight=*/1,
                                         /*deadline=*/-1});

    const auto policy = mustParsePolicy("online-convergent");
    const auto run = runOnline(*machine, policy, arrivals);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    ASSERT_EQ(run->commits.size(), names.size());
    EXPECT_EQ(run->preemptions, 0);
    EXPECT_EQ(run->fallbackDecisions, 0);

    // Every commit's internal schedule must be byte-identical to the
    // offline convergent run on the same region.
    const ConvergentAlgorithm offline(*machine);
    int expected_start = 0;
    std::vector<int> makespans;
    for (const OnlineCommit &commit : run->commits) {
        const WorkloadSpec *workload = tryFindWorkload(commit.workload);
        ASSERT_NE(workload, nullptr);
        const DependenceGraph graph = workload->build(
            machine->numClusters(), machine->numClusters());
        const RunResult reference =
            runAndCheck(offline, graph, *machine);

        EXPECT_EQ(commit.makespan, reference.makespan);
        EXPECT_EQ(commit.instructions, reference.instructions);
        const Schedule &expect = reference.result.schedule;
        ASSERT_EQ(commit.schedule.numInstructions(),
                  expect.numInstructions());
        for (int id = 0; id < expect.numInstructions(); ++id) {
            EXPECT_EQ(commit.schedule.clusterOf(id),
                      expect.clusterOf(id))
                << commit.workload << " instr " << id;
            EXPECT_EQ(commit.schedule.cycleOf(id), expect.cycleOf(id))
                << commit.workload << " instr " << id;
        }

        // Back-to-back packing from cycle 0.
        EXPECT_EQ(commit.start, expected_start);
        expected_start += commit.makespan;
        makespans.push_back(commit.makespan);
    }

    // Equal weights make WSPT shortest-makespan-first.
    for (size_t i = 1; i < makespans.size(); ++i)
        EXPECT_LE(makespans[i - 1], makespans[i]);
}

TEST(OnlineScheduler, LazyFifoCommitsInArrivalOrder)
{
    const auto machine = parseMachineSpec("vliw2");
    ASSERT_NE(machine, nullptr);

    std::vector<RegionArrival> arrivals;
    arrivals.push_back(RegionArrival{0, "fir", 0, 1, -1});
    arrivals.push_back(RegionArrival{1, "vvmul", 1, 8, -1});
    arrivals.push_back(RegionArrival{2, "fir", 2, 4, -1});

    const auto run =
        runOnline(*machine, mustParsePolicy("online-uas"), arrivals);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    ASSERT_EQ(run->commits.size(), 3u);
    EXPECT_EQ(run->preemptions, 0);
    for (size_t i = 0; i < run->commits.size(); ++i) {
        // FIFO ignores weights: commit order is arrival order, and a
        // commit can never start before its release or overlap its
        // predecessor.
        EXPECT_EQ(run->commits[i].regionId, static_cast<int>(i));
        EXPECT_GE(run->commits[i].start, run->commits[i].release);
        if (i > 0)
            EXPECT_GE(run->commits[i].start,
                      run->commits[i - 1].end());
    }
}

TEST(OnlineScheduler, PreemptsUnstartedCommitsForAHeavyArrival)
{
    const auto machine = parseMachineSpec("vliw2");
    ASSERT_NE(machine, nullptr);

    // Three equal light regions commit back-to-back at t=0; a weight-8
    // region arriving at t=1 (inside the first region's run) is >= 2x
    // the lightest unstarted commit, so the unstarted tail must be
    // rolled back and the newcomer inserted ahead of it.
    std::vector<RegionArrival> arrivals;
    arrivals.push_back(RegionArrival{0, "fir", 0, 1, -1});
    arrivals.push_back(RegionArrival{1, "fir", 0, 1, -1});
    arrivals.push_back(RegionArrival{2, "fir", 0, 1, -1});
    arrivals.push_back(RegionArrival{3, "vvmul", 1, 8, -1});

    const auto run = runOnline(
        *machine, mustParsePolicy("online-convergent"), arrivals);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    ASSERT_EQ(run->commits.size(), 4u);
    EXPECT_EQ(run->preemptions, 2);

    // The started region keeps its slot; the heavy region runs before
    // both preempted light ones.
    EXPECT_EQ(run->commits[0].regionId, 0);
    EXPECT_EQ(run->commits[1].regionId, 3);
    EXPECT_EQ(run->commits[2].regionId, 1);
    EXPECT_EQ(run->commits[3].regionId, 2);
    for (size_t i = 1; i < run->commits.size(); ++i)
        EXPECT_EQ(run->commits[i].start, run->commits[i - 1].end());
}

TEST(OnlineMetrics, ScoresATimeline)
{
    OnlineCommit a{/*regionId=*/0, "fir",   /*release=*/0, /*weight=*/2,
                   /*deadline=*/-1, /*start=*/0,  /*makespan=*/10,
                   /*instructions=*/5, /*criticalPathLength=*/4,
                   /*fallback=*/false, Schedule(0, 1)};
    OnlineCommit b{/*regionId=*/1, "vvmul", /*release=*/3, /*weight=*/1,
                   /*deadline=*/12, /*start=*/10, /*makespan=*/6,
                   /*instructions=*/7, /*criticalPathLength=*/6,
                   /*fallback=*/false, Schedule(0, 1)};
    const auto metrics = computeOnlineMetrics({a, b});
    EXPECT_EQ(metrics.regions, 2);
    EXPECT_EQ(metrics.instructions, 12);
    EXPECT_EQ(metrics.makespan, 16);
    // 2*10 + 1*16
    EXPECT_EQ(metrics.weightedCompletion, 36);
    // flows: 10-0 and 16-3
    EXPECT_EQ(metrics.maxFlowTime, 13);
    EXPECT_DOUBLE_EQ(metrics.meanFlowTime, 11.5);
    // b finished at 16 > deadline 12
    EXPECT_EQ(metrics.deadlineMisses, 1);
    EXPECT_EQ(metrics.maxCriticalPathLength, 6);

    const auto empty = computeOnlineMetrics({});
    EXPECT_EQ(empty.regions, 0);
    EXPECT_EQ(empty.makespan, 0);
    EXPECT_DOUBLE_EQ(empty.meanFlowTime, 0.0);
}

TEST(OnlineGrid, MismatchedAxesAreInvalidSpecOutcomes)
{
    // Stream workload with an offline algorithm: the job is routed to
    // the online runner, which must record InvalidSpec -- not crash.
    GridSpec grid;
    grid.workloads = {"stream:poisson:n=2:seed=1:workloads=fir"};
    grid.machines = {"vliw2"};
    grid.algorithms = {*parseAlgorithmSpec("uas")};
    grid.computeSpeedup = false;
    const auto report = runGrid(grid);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].outcome, JobOutcome::Failed);
    EXPECT_EQ(report.results[0].error, ErrorCode::InvalidSpec);

    // And the mirror image: an online policy on an offline workload.
    GridSpec mirror;
    mirror.workloads = {"fir"};
    mirror.machines = {"vliw2"};
    mirror.algorithms = {*parseAlgorithmSpec("online-uas")};
    mirror.computeSpeedup = false;
    const auto mirrored = runGrid(mirror);
    ASSERT_EQ(mirrored.results.size(), 1u);
    EXPECT_EQ(mirrored.results[0].outcome, JobOutcome::Failed);
    EXPECT_EQ(mirrored.results[0].error, ErrorCode::InvalidSpec);
}

GridSpec
smallOnlineGrid(int jobs)
{
    GridSpec grid;
    grid.workloads = {
        "stream:bursty:n=8:seed=5:gap=300:burst=3:workloads=fir+vvmul"};
    grid.machines = {"vliw2", "vliw4"};
    grid.algorithms = {*parseAlgorithmSpec("online-convergent"),
                       *parseAlgorithmSpec("online-uas")};
    grid.computeSpeedup = false;
    grid.jobs = jobs;
    return grid;
}

TEST(OnlineGrid, ByteIdenticalAcrossThreadCounts)
{
    const auto serial = runGrid(smallOnlineGrid(1));
    const auto parallel = runGrid(smallOnlineGrid(4));
    ASSERT_TRUE(serial.allOk());
    EXPECT_EQ(deterministicJson(serial), deterministicJson(parallel));

    // Online cells carry online metrics; sanity-check one result.
    for (const JobResult &job : serial.results) {
        EXPECT_EQ(job.regions, 8);
        EXPECT_GT(job.weightedCompletion, 0);
        EXPECT_GT(job.makespan, 0);
        // assignment doubles as region ids in timeline order.
        EXPECT_EQ(job.assignment.size(), 8u);
    }
}

TEST(OnlineGrid, JournalResumeReplaysByteIdentically)
{
    clearInterrupt();
    const std::string path = tempPath("journal.jsonl");

    auto journaled = smallOnlineGrid(2);
    journaled.journalPath = path;
    const auto first = runGrid(journaled);
    ASSERT_TRUE(first.allOk());

    auto resumed_spec = smallOnlineGrid(2);
    resumed_spec.journalPath = path;
    resumed_spec.resume = true;
    const auto resumed = runGrid(resumed_spec);
    EXPECT_EQ(resumed.replayed,
              static_cast<int>(first.results.size()));
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(first));
}

TEST(OnlineGrid, RejectsMalformedAxes)
{
    std::string error;
    auto bad_stream = smallOnlineGrid(1);
    bad_stream.workloads = {"stream:poisson:n=0"};
    EXPECT_FALSE(validateGrid(bad_stream, &error));

    auto bad_policy = smallOnlineGrid(1);
    AlgorithmSpec unknown;
    unknown.name = "online-nope";
    bad_policy.algorithms = {unknown};
    EXPECT_FALSE(validateGrid(bad_policy, &error));

    EXPECT_TRUE(validateGrid(smallOnlineGrid(1), &error)) << error;
}

// ---- Mid-run degradation -------------------------------------------

TEST(OnlinePolicy, ParsesDegradeOptions)
{
    const auto policy = mustParsePolicy(
        "online-uas:degrade-at=500:degrade-tiles=3+7");
    EXPECT_EQ(policy.degradeAt, 500);
    EXPECT_EQ(policy.degradeTiles, (std::vector<int>{3, 7}));

    std::string error;
    EXPECT_FALSE(
        parseOnlinePolicy("online-uas:degrade-at=500", &error));
    EXPECT_NE(error.find("must be given together"), std::string::npos);
    EXPECT_FALSE(
        parseOnlinePolicy("online-uas:degrade-tiles=3", &error));
    EXPECT_FALSE(
        parseOnlinePolicy("online-uas:degrade-at=-2:degrade-tiles=3",
                          &error));
    EXPECT_FALSE(parseOnlinePolicy(
        "online-uas:degrade-at=5:degrade-tiles=", &error));
}

TEST(OnlineScheduler, ArmedDegradePolicyNeedsTheDegradedMachine)
{
    const auto machine = parseMachineSpec("raw4x4");
    ASSERT_NE(machine, nullptr);
    std::vector<RegionArrival> arrivals;
    arrivals.push_back(RegionArrival{0, "fir", 0, 1, -1});
    const auto policy =
        mustParsePolicy("online-uas:degrade-at=10:degrade-tiles=5");
    const auto run = runOnline(*machine, policy, arrivals);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::InvalidSpec);
}

/**
 * Shared scenario for the degradation tests: a fir/vvmul stream on a
 * 4x4 mesh; when the policy arms a degrade event, the post-event
 * machine is built through the extra_dead_clusters hook, exactly as
 * the online grid does.
 */
StatusOr<OnlineRunResult>
degradeRun(const std::string &policy_text)
{
    const auto machine = parseMachineSpec("raw4x4");
    EXPECT_NE(machine, nullptr);
    const auto arrivals = mustGenerate(
        "stream:poisson:n=10:seed=3:mean-gap=40:max-weight=4:"
        "workloads=fir+vvmul");
    const auto policy = mustParsePolicy(policy_text);
    std::unique_ptr<MachineModel> degraded;
    if (policy.degradeAt >= 0) {
        auto built = tryParseMachineSpec("raw4x4", policy.degradeTiles);
        EXPECT_TRUE(built.ok()) << built.status().toString();
        degraded = std::move(*built);
    }
    return runOnline(*machine, policy, arrivals, degraded.get());
}

TEST(OnlineScheduler, MidRunTileLossReplansLazyCommits)
{
    const int degrade_at = 120;
    const auto baseline = degradeRun("online-uas");
    ASSERT_TRUE(baseline.ok()) << baseline.status().toString();
    const auto run = degradeRun(
        "online-uas:degrade-at=120:degrade-tiles=5+6");
    ASSERT_TRUE(run.ok()) << run.status().toString();

    EXPECT_TRUE(run->degradeFired);
    EXPECT_FALSE(baseline->degradeFired);
    EXPECT_EQ(run->commits.size(), baseline->commits.size());

    // Commits that started strictly before the event are identical
    // to the undegraded run: started regions are never aborted.
    size_t started = 0;
    while (started < run->commits.size() &&
           run->commits[started].start < degrade_at) {
        EXPECT_EQ(run->commits[started].regionId,
                  baseline->commits[started].regionId);
        EXPECT_EQ(run->commits[started].start,
                  baseline->commits[started].start);
        EXPECT_EQ(run->commits[started].makespan,
                  baseline->commits[started].makespan);
        ++started;
    }
    ASSERT_GT(started, 0u);
    ASSERT_LT(started, run->commits.size());

    // Every post-event commit was planned on the surviving machine:
    // no instruction may sit on a dead tile, and the re-planning is
    // visible in the metrics.
    EXPECT_GT(run->degradeReplans, 0);
    EXPECT_EQ(baseline->degradeReplans, 0);
    for (size_t i = started; i < run->commits.size(); ++i) {
        const Schedule &schedule = run->commits[i].schedule;
        EXPECT_GE(run->commits[i].start, run->commits[i].release);
        for (int id = 0; id < schedule.numInstructions(); ++id) {
            EXPECT_NE(schedule.clusterOf(id), 5)
                << "commit " << run->commits[i].regionId;
            EXPECT_NE(schedule.clusterOf(id), 6)
                << "commit " << run->commits[i].regionId;
        }
    }
}

TEST(OnlineScheduler, MidRunTileLossReplansPlanAheadCommits)
{
    const int degrade_at = 120;
    const auto run = degradeRun(
        "online-convergent:degrade-at=120:degrade-tiles=5+6");
    ASSERT_TRUE(run.ok()) << run.status().toString();
    EXPECT_TRUE(run->degradeFired);
    EXPECT_GT(run->degradeReplans, 0);
    EXPECT_EQ(run->commits.size(), 10u);
    for (const OnlineCommit &commit : run->commits) {
        EXPECT_GE(commit.start, commit.release);
        if (commit.start <= degrade_at)
            continue;
        for (int id = 0; id < commit.schedule.numInstructions(); ++id) {
            EXPECT_NE(commit.schedule.clusterOf(id), 5);
            EXPECT_NE(commit.schedule.clusterOf(id), 6);
        }
    }
}

TEST(OnlineScheduler, DegradeRunsAreDeterministic)
{
    const auto first = degradeRun(
        "online-sp:degrade-at=200:degrade-tiles=0");
    const auto second = degradeRun(
        "online-sp:degrade-at=200:degrade-tiles=0");
    ASSERT_TRUE(first.ok()) << first.status().toString();
    ASSERT_TRUE(second.ok()) << second.status().toString();
    ASSERT_EQ(first->commits.size(), second->commits.size());
    for (size_t i = 0; i < first->commits.size(); ++i) {
        EXPECT_EQ(first->commits[i].regionId,
                  second->commits[i].regionId);
        EXPECT_EQ(first->commits[i].start, second->commits[i].start);
        EXPECT_EQ(first->commits[i].makespan,
                  second->commits[i].makespan);
    }
}

TEST(OnlineScheduler, DegradeEventHitsItsFaultPoint)
{
    std::string error;
    const auto plan = FaultPlan::parse("machine.degrade=fail", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    FaultScope scope(&*plan, "degrade-test");
    ScopedFaultScope bound(&scope);

    // Outside a job boundary the injected fault surfaces as the
    // StatusError the runner layer would classify.
    try {
        const auto run = degradeRun(
            "online-uas:degrade-at=120:degrade-tiles=5");
        FAIL() << "expected the machine.degrade injection to fire, got "
               << (run.ok() ? "ok" : run.status().toString());
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status.code(), ErrorCode::Injected);
        EXPECT_NE(error.status.message().find("machine.degrade"),
                  std::string::npos);
    }
}

TEST(OnlineGrid, DegradeSweepIsByteIdenticalAcrossThreadCounts)
{
    auto degradeGrid = [](int jobs) {
        GridSpec grid;
        grid.workloads = {"stream:poisson:n=8:seed=3:mean-gap=40:"
                          "max-weight=4:workloads=fir+vvmul"};
        grid.machines = {"raw4x4", "raw4x4/faults=tiles:2+9"};
        grid.algorithms = {
            *parseAlgorithmSpec(
                "online-uas:degrade-at=120:degrade-tiles=5"),
            *parseAlgorithmSpec("online-convergent")};
        grid.computeSpeedup = false;
        grid.jobs = jobs;
        return grid;
    };
    const auto serial = runGrid(degradeGrid(1));
    const auto parallel = runGrid(degradeGrid(4));
    ASSERT_TRUE(serial.allOk());
    EXPECT_EQ(deterministicJson(serial), deterministicJson(parallel));
}

} // namespace
} // namespace csched
