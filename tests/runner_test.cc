/**
 * @file
 * Tests for the parallel experiment runner: grid expansion order,
 * validation, the determinism guarantee (same results for any thread
 * count, down to the serialized bytes), and the JSON report schema.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <latch>

#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "runner/thread_pool.hh"
#include "support/json.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

GridSpec
smallGrid()
{
    GridSpec grid;
    grid.workloads = {"vvmul", "fir", "jacobi"};
    grid.machines = {"vliw4", "raw2x2"};
    grid.algorithms = {*parseAlgorithmSpec("convergent"),
                       *parseAlgorithmSpec("uas")};
    return grid;
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::vector<int> done(64, 0);
    for (size_t k = 0; k < done.size(); ++k)
        pool.submit([&done, k] { done[k] = 1; });
    pool.wait();
    for (size_t k = 0; k < done.size(); ++k)
        EXPECT_EQ(done[k], 1) << k;
}

TEST(ThreadPool, WaitForTimesOutWhileBusyAndReturnsOnceIdle)
{
    using std::chrono::milliseconds;
    ThreadPool pool(2);
    EXPECT_TRUE(pool.waitFor(milliseconds(0)));  // idle from the start

    std::latch gate(1);
    pool.submit([&gate] { gate.wait(); });
    EXPECT_FALSE(pool.waitFor(milliseconds(50)));

    gate.count_down();
    EXPECT_TRUE(pool.waitFor(milliseconds(5000)));
    EXPECT_TRUE(pool.waitFor(milliseconds(0)));
}

TEST(GridRunner, ExpandsWorkloadMajorAlgorithmMinor)
{
    const auto jobs = expandGrid(smallGrid());
    ASSERT_EQ(jobs.size(), 3u * 2u * 2u);
    EXPECT_EQ(jobs[0].workload, "vvmul");
    EXPECT_EQ(jobs[0].machine, "vliw4");
    EXPECT_EQ(jobs[0].algorithm.name, "convergent");
    EXPECT_EQ(jobs[1].algorithm.name, "uas");
    EXPECT_EQ(jobs[2].machine, "raw2x2");
    EXPECT_EQ(jobs[4].workload, "fir");
    EXPECT_EQ(jobs.back().workload, "jacobi");
    EXPECT_EQ(jobs.back().machine, "raw2x2");
    EXPECT_EQ(jobs.back().algorithm.name, "uas");
}

TEST(GridRunner, ValidatesEveryAxis)
{
    std::string error;
    EXPECT_TRUE(validateGrid(smallGrid(), &error)) << error;

    auto bad_workload = smallGrid();
    bad_workload.workloads.push_back("nonesuch");
    EXPECT_FALSE(validateGrid(bad_workload, &error));
    EXPECT_NE(error.find("nonesuch"), std::string::npos);

    auto bad_machine = smallGrid();
    bad_machine.machines.push_back("vliw0");
    EXPECT_FALSE(validateGrid(bad_machine, &error));
    EXPECT_NE(error.find("vliw0"), std::string::npos);

    auto bad_algorithm = smallGrid();
    bad_algorithm.algorithms.push_back(
        AlgorithmSpec{"convergent", "BOGUS", std::nullopt});
    EXPECT_FALSE(validateGrid(bad_algorithm, &error));
}

TEST(GridRunner, JobResultsAreSelfDescribing)
{
    auto grid = smallGrid();
    grid.jobs = 1;
    const auto report = runGrid(grid);
    ASSERT_EQ(report.results.size(), expandGrid(grid).size());
    for (const auto &job : report.results) {
        EXPECT_FALSE(job.workload.empty());
        EXPECT_FALSE(job.machine.empty());
        EXPECT_FALSE(job.algorithmName.empty());
        EXPECT_GT(job.instructions, 0);
        EXPECT_GE(job.makespan, job.criticalPathLength);
        EXPECT_GT(job.singleClusterMakespan, 0);
        EXPECT_GT(job.speedup, 0.0);
        EXPECT_EQ(static_cast<int>(job.assignment.size()),
                  job.instructions);
    }
}

TEST(GridRunner, KeepsSchedulesOnlyWhenAsked)
{
    auto grid = smallGrid();
    for (const auto &job : runGrid(grid).results)
        EXPECT_EQ(job.schedule, nullptr) << job.workload;

    grid.keepSchedules = true;
    for (const auto &job : runGrid(grid).results) {
        ASSERT_NE(job.schedule, nullptr) << job.workload;
        EXPECT_EQ(job.schedule->makespan(), job.makespan);
        EXPECT_EQ(job.schedule->assignment(), job.assignment);
    }
}

/**
 * The ISSUE's core acceptance criterion: the same grid run serially
 * and on many threads produces identical makespans and assignments --
 * and, with timings stripped, byte-identical JSON.  The container may
 * have a single core, so jobs=8 exercises queueing/interleaving rather
 * than true parallelism, but the determinism argument (self-contained
 * jobs writing to pre-assigned slots) is what is under test.
 */
TEST(GridRunner, ThreadCountDoesNotChangeResults)
{
    auto serial = smallGrid();
    serial.jobs = 1;
    auto parallel = smallGrid();
    parallel.jobs = 8;

    const auto a = runGrid(serial);
    const auto b = runGrid(parallel);
    ASSERT_EQ(a.results.size(), b.results.size());
    EXPECT_EQ(a.threads, 1);
    EXPECT_EQ(b.threads, 8);
    for (size_t k = 0; k < a.results.size(); ++k) {
        const auto &ra = a.results[k];
        const auto &rb = b.results[k];
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.machine, rb.machine);
        EXPECT_EQ(ra.algorithm, rb.algorithm);
        EXPECT_EQ(ra.makespan, rb.makespan) << ra.workload;
        EXPECT_EQ(ra.assignment, rb.assignment) << ra.workload;
        EXPECT_EQ(ra.speedup, rb.speedup) << ra.workload;
        EXPECT_EQ(ra.trace.size(), rb.trace.size());
    }

    ReportOptions options;
    options.timings = false;
    EXPECT_EQ(gridReportToJson(a, options), gridReportToJson(b, options));
}

TEST(JsonReport, RoundTripsThroughTheParser)
{
    auto grid = smallGrid();
    grid.jobs = 2;
    const auto report = runGrid(grid);

    const auto json = gridReportToJson(report);
    std::string error;
    const auto parsed = parseJson(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->at("schema").string, kGridReportSchema);
    EXPECT_EQ(parsed->at("threads").asInt(), 2);

    const auto &results = parsed->at("results");
    ASSERT_EQ(results.array.size(), report.results.size());
    for (size_t k = 0; k < results.array.size(); ++k) {
        const auto &json_job = results.array[k];
        const auto &job = report.results[k];
        EXPECT_EQ(json_job.at("workload").string, job.workload);
        EXPECT_EQ(json_job.at("machine").string, job.machine);
        EXPECT_EQ(json_job.at("algorithm").string, job.algorithm);
        EXPECT_EQ(json_job.at("makespan").asInt(), job.makespan);
        EXPECT_EQ(json_job.at("speedup").asDouble(), job.speedup);
        const auto &assignment = json_job.at("assignment").array;
        ASSERT_EQ(assignment.size(), job.assignment.size());
        for (size_t i = 0; i < assignment.size(); ++i)
            EXPECT_EQ(assignment[i].asInt(), job.assignment[i]);
    }
}

TEST(JsonReport, OptionsStripSections)
{
    GridSpec grid;
    grid.workloads = {"vvmul"};
    grid.machines = {"vliw4"};
    grid.algorithms = {*parseAlgorithmSpec("convergent")};
    const auto report = runGrid(grid);

    ReportOptions stripped;
    stripped.timings = false;
    stripped.assignments = false;
    stripped.trace = false;
    const auto json = gridReportToJson(report, stripped);
    EXPECT_EQ(json.find("seconds"), std::string::npos);
    EXPECT_EQ(json.find("threads"), std::string::npos);
    EXPECT_EQ(json.find("assignment"), std::string::npos);
    EXPECT_EQ(json.find("trace"), std::string::npos);

    const auto full = gridReportToJson(report);
    EXPECT_NE(full.find("seconds"), std::string::npos);
    EXPECT_NE(full.find("assignment"), std::string::npos);
    EXPECT_NE(full.find("trace"), std::string::npos);
}

TEST(JsonReport, SpeedupFieldsFollowTheSpec)
{
    GridSpec grid;
    grid.workloads = {"vvmul"};
    grid.machines = {"vliw2"};
    grid.algorithms = {*parseAlgorithmSpec("uas")};
    grid.computeSpeedup = false;
    const auto report = runGrid(grid);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].singleClusterMakespan, 0);
    const auto json = gridReportToJson(report);
    EXPECT_EQ(json.find("speedup"), std::string::npos);
    EXPECT_EQ(json.find("singleClusterMakespan"), std::string::npos);
}

} // namespace
} // namespace csched
