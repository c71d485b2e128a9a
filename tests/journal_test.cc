/**
 * @file
 * Tests for the crash-safe execution layer: the append-only job
 * journal, resume-to-byte-identical-report semantics, graceful
 * shutdown (injected interrupts and real signals), and atomic file
 * replacement.
 *
 * The core guarantee under test: a grid killed at any point -- fault,
 * SIGTERM, mid-append crash -- and resumed from its journal produces
 * a final report byte-identical to an uninterrupted run, at any
 * --jobs value.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "runner/failure_summary.hh"
#include "runner/grid_runner.hh"
#include "runner/journal.hh"
#include "runner/json_report.hh"
#include "runner/shutdown.hh"
#include "support/atomic_file.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"

namespace csched {
namespace {

FaultPlan
mustParse(const std::string &text)
{
    std::string error;
    const auto plan = FaultPlan::parse(text, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    return plan.value_or(FaultPlan());
}

/** Interrupt tests must not leak shutdown state into later tests. */
struct InterruptGuard
{
    InterruptGuard() { clearInterrupt(); }
    ~InterruptGuard() { clearInterrupt(); }
};

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->test_suite_name() + "-" +
           info->name() + "-" + name;
}

GridSpec
smallGrid(int jobs = 2)
{
    GridSpec grid;
    grid.workloads = {"vvmul", "fir"};
    grid.machines = {"vliw2"};
    grid.algorithms = {*parseAlgorithmSpec("uas"),
                       *parseAlgorithmSpec("convergent")};
    grid.jobs = jobs;
    return grid;
}

std::string
deterministicJson(const GridReport &report)
{
    ReportOptions options;
    options.timings = false;
    return gridReportToJson(report, options);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(JobJournal, RecordsEveryTerminalOutcome)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");
    auto grid = smallGrid();
    grid.journalPath = path;
    const auto report = runGrid(grid);
    ASSERT_TRUE(report.allOk());

    const auto replay = loadJournal(path, gridFingerprint(grid));
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ(replay->results.size(), report.results.size());
    EXPECT_EQ(replay->ignoredLines, 0);
    EXPECT_FALSE(replay->rewriteHeader);

    // Every journaled result round-trips exactly.
    const auto jobs = expandGrid(grid);
    for (size_t k = 0; k < jobs.size(); ++k) {
        const auto it = replay->results.find(jobKey(jobs[k]));
        ASSERT_NE(it, replay->results.end()) << jobKey(jobs[k]);
        GridReport replayed = report;
        replayed.results[k] = it->second;
        EXPECT_EQ(deterministicJson(replayed),
                  deterministicJson(report));
    }
}

TEST(JobJournal, RefusesAJournalFromADifferentGrid)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");
    auto grid = smallGrid();
    grid.journalPath = path;
    runGrid(grid);

    auto other = grid;
    other.retries = 3;  // policy is part of the fingerprint
    const auto replay = loadJournal(path, gridFingerprint(other));
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), ErrorCode::InvalidSpec);
}

TEST(JobJournal, MissingFileIsAnEmptyReplay)
{
    const auto replay =
        loadJournal(tempPath("nonexistent.jsonl"), "fp");
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(replay->results.empty());
    EXPECT_TRUE(replay->rewriteHeader);
}

/**
 * The grid the interrupt-and-resume checks run: ten jobs, with
 * fir/vliw2/convergent last.  The pool starts jobs in grid order, so
 * with at most nine threads that job starts only once another has
 * completed and been journaled.
 */
GridSpec
interruptGrid(int jobs)
{
    GridSpec grid = smallGrid(jobs);
    grid.workloads = {"vvmul", "yuv", "jacobi", "life", "fir"};
    return grid;
}

/** Interrupt the grid via the deterministic fault point, journaling
 * what completed, then resume to a byte-identical report. */
void
checkInjectedInterruptResume(int interrupted_jobs, int resumed_jobs)
{
    InterruptGuard guard;
    const std::string path =
        tempPath("journal-" + std::to_string(interrupted_jobs) + "-" +
                 std::to_string(resumed_jobs) + ".jsonl");

    const auto baseline = runGrid(interruptGrid(2));
    ASSERT_TRUE(baseline.allOk());

    // fir/vliw2/convergent pulls the plug the moment it starts; every
    // job not yet finished comes back `interrupted`.
    const auto plan =
        mustParse("runner.interrupt=fail:match=fir/vliw2/convergent");
    auto interrupted = interruptGrid(interrupted_jobs);
    interrupted.journalPath = path;
    interrupted.faults = &plan;
    const auto partial = runGrid(interrupted);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_GT(partial.summary.interrupted, 0);
    EXPECT_LT(partial.summary.ok, partial.summary.total);
    EXPECT_FALSE(partial.allOk());
    EXPECT_EQ(gridExitCode(partial, /*keep_going=*/true), 130);

    // The partial report itself says so in its serialized form.
    EXPECT_NE(deterministicJson(partial).find("\"interrupted\": true"),
              std::string::npos);

    clearInterrupt();
    auto resumed_grid = interruptGrid(resumed_jobs);
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.replayed, 0);
    EXPECT_EQ(resumed.replayed, partial.summary.ok);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(baseline));
}

TEST(Resume, ByteIdenticalAfterInjectedInterruptSerial)
{
    checkInjectedInterruptResume(1, 1);
}

TEST(Resume, ByteIdenticalAfterInjectedInterruptParallel)
{
    checkInjectedInterruptResume(8, 8);
}

TEST(Resume, ByteIdenticalAcrossDifferentThreadCounts)
{
    checkInjectedInterruptResume(1, 8);
}

TEST(Resume, ToleratesTruncatedAndGarbageTrailingRecords)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");

    const auto baseline = runGrid(smallGrid());

    const auto plan =
        mustParse("runner.interrupt=fail:match=fir/vliw2/convergent");
    auto interrupted = smallGrid();
    interrupted.journalPath = path;
    interrupted.faults = &plan;
    const auto partial = runGrid(interrupted);
    ASSERT_TRUE(partial.interrupted);
    ASSERT_GT(partial.summary.ok, 0);

    // Simulate a crash mid-append: a garbled line plus a record cut
    // off halfway, with no trailing newline.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"key\": \"not even json\n";
        const auto jobs = expandGrid(interrupted);
        const std::string line =
            journalRecordLine(jobs[0], partial.results[0]);
        out << line.substr(0, line.size() / 2);
    }

    const auto replay =
        loadJournal(path, gridFingerprint(interrupted));
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ(replay->ignoredLines, 2);

    clearInterrupt();
    auto resumed_grid = smallGrid();
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(baseline));
}

TEST(Resume, InjectedAppendCrashLeavesAResumableJournal)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");

    const auto baseline = runGrid(smallGrid());

    // The append for one job's record "crashes" halfway: the job
    // itself still ran and is reported, but its record is truncated.
    const auto plan = mustParse(
        "journal.append=fail:match=vvmul/vliw2/uas/journal");
    auto grid = smallGrid();
    grid.journalPath = path;
    grid.faults = &plan;
    const auto report = runGrid(grid);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(deterministicJson(report), deterministicJson(baseline));

    // The loader skips the half-written record; only that job re-runs.
    const auto replay = loadJournal(path, gridFingerprint(grid));
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ(replay->ignoredLines, 1);
    EXPECT_EQ(replay->results.size(), report.results.size() - 1);
    EXPECT_EQ(replay->results.count("vvmul/vliw2/uas"), 0u);

    auto resumed_grid = smallGrid();
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_EQ(resumed.replayed,
              static_cast<int>(report.results.size()) - 1);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(baseline));
}

TEST(Shutdown, RealSigtermDrainsJournalsAndResumes)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");

    const auto baseline = runGrid(smallGrid());

    // Slow every job down so the signal lands mid-grid, then deliver
    // a real SIGTERM through the installed handler.
    const auto plan = mustParse("runner.job.start=slow:ms=100");
    auto grid = smallGrid(1);
    grid.journalPath = path;
    grid.faults = &plan;
    installGridSignalHandlers();
    std::thread killer([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        ::kill(::getpid(), SIGTERM);
    });
    const auto partial = runGrid(grid);
    killer.join();

    EXPECT_TRUE(partial.interrupted);
    EXPECT_GT(partial.summary.interrupted, 0);
    EXPECT_EQ(interruptSignal(), SIGTERM);
    EXPECT_EQ(gridExitCode(partial, /*keep_going=*/false), 143);

    clearInterrupt();
    auto resumed_grid = smallGrid();
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(baseline));
}

TEST(Shutdown, HandlerIsSafeWhileTheLogMutexIsHeld)
{
    // Regression guard for the async-signal-safety audit in
    // runner/shutdown.cc: the handler may run on a thread that is
    // mid-log with the logging mutex held.  A handler that logged (or
    // took any lock) would self-deadlock right here; a safe handler
    // just flips the lock-free flags.
    InterruptGuard guard;
    installGridSignalHandlers();
    {
        std::lock_guard<std::mutex> mid_log(logMutexForTesting());
        ASSERT_EQ(std::raise(SIGTERM), 0);
    }
    EXPECT_TRUE(interruptRequested());
    EXPECT_EQ(interruptSignal(), SIGTERM);
    // The handler resets the disposition to SIG_DFL after one shot
    // (second-signal-kills contract); nothing to restore here --
    // later tests reinstall the handlers themselves.
}

TEST(Shutdown, ExitCodeContract)
{
    EXPECT_EQ(interruptExitCode(SIGINT), 130);
    EXPECT_EQ(interruptExitCode(SIGTERM), 143);
    // Interrupt without a recorded signal (pure fault injection)
    // reports as a SIGINT-style exit.
    EXPECT_EQ(interruptExitCode(0), 130);
}

TEST(Shutdown, NamesRoundTrip)
{
    EXPECT_EQ(parseJobOutcomeName("interrupted"),
              JobOutcome::Interrupted);
    EXPECT_EQ(parseJobOutcomeName("ok"), JobOutcome::Ok);
    EXPECT_FALSE(parseJobOutcomeName("nonesuch").has_value());
    EXPECT_EQ(parseErrorCodeName("interrupted"),
              ErrorCode::Interrupted);
    EXPECT_FALSE(parseErrorCodeName("nonesuch").has_value());
}

TEST(AtomicFile, ReplacesContentsAndCleansUp)
{
    const std::string path = tempPath("report.json");
    ASSERT_TRUE(writeFileAtomic(path, "first\n").ok());
    EXPECT_EQ(readFile(path), "first\n");
    ASSERT_TRUE(writeFileAtomic(path, "second\n").ok());
    EXPECT_EQ(readFile(path), "second\n");
    EXPECT_NE(::access(path.c_str(), F_OK), -1);
    EXPECT_EQ(::access(atomicTempPath(path).c_str(), F_OK), -1);
}

TEST(AtomicFile, InjectedCrashLeavesDestinationUntouched)
{
    const std::string path = tempPath("report.json");
    ASSERT_TRUE(writeFileAtomic(path, "precious\n").ok());

    const auto plan = mustParse("report.write=fail");
    FaultScope scope(&plan, "report");
    ScopedFaultScope scope_guard(&scope);
    const Status status = writeFileAtomic(path, "clobber\n");
    EXPECT_FALSE(status.ok());
    // Old contents intact; only the staging file is orphaned.
    EXPECT_EQ(readFile(path), "precious\n");
    EXPECT_EQ(readFile(atomicTempPath(path)), "clobber\n");
}

} // namespace
} // namespace csched
