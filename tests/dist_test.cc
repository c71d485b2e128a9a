/**
 * @file
 * Tests for the distributed execution layer (dist/): the
 * csched-dist-v1 wire protocol and its untrusted-peer hardening, the
 * dist-client knob grammar, the workerd daemon's behaviour against
 * hostile frames, and the RemoteWorkerPool's robustness contract
 * end-to-end against real forked daemons -- lease reassignment across
 * an injected network partition, a SIGKILL of one daemon mid-grid,
 * the crash-loop quarantine of a host that never completes a
 * handshake, and journal/resume byte-identity across execution modes
 * (in-process vs fleet, at any host count).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/protocol.hh"
#include "dist/remote_pool.hh"
#include "dist/workerd.hh"
#include "eval/experiment.hh"
#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "runner/shutdown.hh"
#include "support/fault_injection.hh"
#include "support/socket.hh"
#include "support/subprocess.hh"

namespace csched {
namespace {

using Clock = std::chrono::steady_clock;

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

/** Poll @p pred every 10 ms for up to @p budget_ms. */
template <typename Predicate>
bool
eventually(Predicate pred, int budget_ms = 3000)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(budget_ms);
    while (!pred()) {
        if (Clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
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

JobSpec
smallJob()
{
    JobSpec spec;
    spec.workload = "fir";
    spec.machine = "vliw2";
    spec.algorithm = *parseAlgorithmSpec("uas");
    spec.computeSpeedup = false;
    return spec;
}

/** One forked workerd, reaped (SIGKILL tolerated) on destruction. */
struct ForkedWorkerd
{
    pid_t pid = -1;
    uint16_t port = 0;

    ~ForkedWorkerd()
    {
        if (pid <= 0)
            return;
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
    }
};

/**
 * Fork a daemon on an ephemeral loopback port; the port comes back
 * over a pipe once the daemon is listening.  Fork while the test
 * process is still single-threaded (gtest runs tests serially on the
 * main thread, so call this before spawning any helper threads).
 */
ForkedWorkerd
forkWorkerd(int workers = 2, const std::string &inject = "")
{
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    EXPECT_NE(pid, -1);
    if (pid == 0) {
        ::close(fds[0]);
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        installServeSignalHandlers();
        FaultPlan plan;
        WorkerdOptions options;
        options.workers = workers;
        if (!inject.empty()) {
            std::string error;
            auto parsed = FaultPlan::parse(inject, &error);
            if (!parsed.has_value())
                ::_exit(3);
            plan = std::move(*parsed);
            options.faults = &plan;
        }
        WorkerdServer server(std::move(options));
        if (!server.start().ok())
            ::_exit(1);
        const std::string line = std::to_string(server.port());
        (void)!::write(fds[1], line.data(), line.size());
        ::close(fds[1]);
        ::_exit(server.run());
    }
    ::close(fds[1]);
    char buffer[16] = {0};
    const ssize_t got = ::read(fds[0], buffer, sizeof(buffer) - 1);
    ::close(fds[0]);
    ForkedWorkerd daemon;
    daemon.pid = pid;
    EXPECT_GT(got, 0);
    if (got > 0)
        daemon.port = static_cast<uint16_t>(std::atoi(buffer));
    return daemon;
}

std::string
endpoint(const ForkedWorkerd &daemon)
{
    return "127.0.0.1:" + std::to_string(daemon.port);
}

/** Shrunken timing knobs so failure handling fits test time. */
DistOptions
fastDistOptions()
{
    DistOptions options;
    options.heartbeatIntervalMs = 50;
    options.livenessTimeoutMs = 600;
    options.reconnectBaseMs = 20;
    options.reconnectCapMs = 200;
    options.partitionMs = 200;
    options.quarantineCooldownMs = 300;
    return options;
}

// --- Protocol ----------------------------------------------------------

TEST(DistProtocol, ControlFramesRoundTrip)
{
    const auto hello = decodeDistMessage(encodeDistHello());
    ASSERT_TRUE(hello.ok()) << hello.status().toString();
    EXPECT_EQ(hello->kind, DistMessage::Kind::Hello);

    const auto welcome = decodeDistMessage(encodeDistWelcome(6));
    ASSERT_TRUE(welcome.ok());
    EXPECT_EQ(welcome->kind, DistMessage::Kind::Welcome);
    EXPECT_EQ(welcome->capacity, 6);

    const auto ping = decodeDistMessage(encodeDistPing(41));
    ASSERT_TRUE(ping.ok());
    EXPECT_EQ(ping->kind, DistMessage::Kind::Ping);
    EXPECT_EQ(ping->seq, 41u);

    const auto pong = decodeDistMessage(encodeDistPong(41));
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->kind, DistMessage::Kind::Pong);
    EXPECT_EQ(pong->seq, 41u);
}

TEST(DistProtocol, JobCarriesTheWorkerCrossingVerbatim)
{
    const JobSpec spec = smallJob();
    JobPolicy policy;
    policy.deadlineMs = 1500;
    BaselineMemo memo;
    BaselineEntry entry;
    entry.makespan = 9;
    memo[{spec.workload, spec.machine}] = entry;

    const auto decoded = decodeDistMessage(
        encodeDistJob(7, spec, policy, /*retries=*/2, &memo));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->kind, DistMessage::Kind::Job);
    EXPECT_EQ(decoded->id, 7u);
    ASSERT_TRUE(decoded->job.has_value());
    EXPECT_EQ(decoded->job->spec.workload, "fir");
    EXPECT_EQ(decoded->job->spec.machine, "vliw2");
    EXPECT_EQ(decoded->job->deadlineMs, 1500);
    EXPECT_EQ(decoded->job->retries, 2);
}

TEST(DistProtocol, ResultRoundTrips)
{
    JobResult result;
    result.workload = "fir";
    result.machine = "vliw2";
    result.algorithm = "uas";
    result.makespan = 11;
    result.attempts = 1;

    const auto decoded =
        decodeDistMessage(encodeDistResult(9, result));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->kind, DistMessage::Kind::Result);
    EXPECT_EQ(decoded->id, 9u);
    ASSERT_TRUE(decoded->result.has_value());
    EXPECT_EQ(decoded->result->workload, "fir");
    EXPECT_EQ(decoded->result->makespan, 11);
}

TEST(DistProtocol, HostileBytesComeBackClassifiedNeverThrow)
{
    const std::vector<std::string> hostile = {
        "",                                  // empty
        "not json at all",                   // not JSON
        "{}",                                // no schema
        "{\"schema\": \"wrong\", \"type\": \"hello\"}",
        "{\"schema\": \"csched-dist-v1\"}",  // no type
        "{\"schema\": \"csched-dist-v1\", \"type\": \"nope\"}",
        "{\"schema\": \"csched-dist-v1\", \"type\": \"job\"}",
        "{\"schema\": \"csched-dist-v1\", \"type\": \"result\","
        " \"id\": 1}",                       // result without body
        "{\"schema\": \"csched-dist-v1\", \"type\": \"welcome\","
        " \"capacity\": \"lots\"}",          // mis-typed field
    };
    for (const auto &payload : hostile) {
        const auto decoded = decodeDistMessage(payload);
        EXPECT_FALSE(decoded.ok()) << "accepted: " << payload;
        EXPECT_EQ(decoded.status().code(), ErrorCode::InvalidSpec);
    }
}

// --- Knob grammar ------------------------------------------------------

TEST(DistOptionsGrammar, AppliesKebabCaseOverrides)
{
    DistOptions options;
    const Status applied = DistOptions::applyOverrides(
        &options, "liveness-timeout-ms=500,steal-after-ms=200,"
                  "crash-loop-threshold=5");
    ASSERT_TRUE(applied.ok()) << applied.toString();
    EXPECT_EQ(options.livenessTimeoutMs, 500);
    EXPECT_EQ(options.stealAfterMs, 200);
    EXPECT_EQ(options.crashLoopThreshold, 5);
}

TEST(DistOptionsGrammar, RejectsUnknownKeysAndBadValues)
{
    DistOptions options;
    EXPECT_FALSE(
        DistOptions::applyOverrides(&options, "no-such-knob=1").ok());
    EXPECT_FALSE(DistOptions::applyOverrides(
                     &options, "liveness-timeout-ms=soon")
                     .ok());
    EXPECT_FALSE(
        DistOptions::applyOverrides(&options, "liveness-timeout-ms")
            .ok());
    // 2^32 + 1 does not fit an int: rejected, not wrapped to 1.
    const int steal_after_ms = options.stealAfterMs;
    EXPECT_FALSE(DistOptions::applyOverrides(
                     &options, "steal-after-ms=4294967297")
                     .ok());
    EXPECT_EQ(options.stealAfterMs, steal_after_ms);
}

// --- Daemon vs hostile peers ------------------------------------------

TEST(WorkerdHardening, SurvivesGarbageAndOversizedFrames)
{
    WorkerdOptions options;
    options.workers = 1;
    WorkerdServer server(std::move(options));
    ASSERT_TRUE(server.start().ok());
    std::thread serving([&] { server.run(); });

    // Complete the hello/welcome handshake like a real client, so
    // the hostile frames below hit the post-handshake classifier.
    auto handshake = [&]() -> int {
        const auto fd = connectTcp("127.0.0.1", server.port(), 2000);
        EXPECT_TRUE(fd.ok()) << fd.status().toString();
        EXPECT_TRUE(writeFrame(*fd, encodeDistHello()).ok());
        const auto welcome = readFrame(*fd, 3000, kDistMaxFrameBytes);
        EXPECT_TRUE(welcome.ok()) << welcome.error;
        return *fd;
    };

    // A peer that refuses to handshake at all costs it the connection
    // and a handshake-failure count, nothing more.
    {
        const auto fd = connectTcp("127.0.0.1", server.port(), 2000);
        ASSERT_TRUE(fd.ok()) << fd.status().toString();
        ASSERT_TRUE(writeFrame(*fd, "definitely not a dist frame").ok());
        const auto reply = readFrame(*fd, 3000, kDistMaxFrameBytes);
        EXPECT_NE(reply.kind, FrameResult::Kind::Payload);
        ::close(*fd);
    }

    // A welcomed peer that degenerates into garbage.
    {
        const int fd = handshake();
        ASSERT_TRUE(writeFrame(fd, "garbage after the welcome").ok());
        const auto reply = readFrame(fd, 3000, kDistMaxFrameBytes);
        EXPECT_NE(reply.kind, FrameResult::Kind::Payload);
        ::close(fd);
    }

    // A welcomed peer probing with a huge length prefix (no body).
    {
        const int fd = handshake();
        const uint32_t huge = kDistMaxFrameBytes + 1;
        const unsigned char header[4] = {
            static_cast<unsigned char>(huge & 0xff),
            static_cast<unsigned char>((huge >> 8) & 0xff),
            static_cast<unsigned char>((huge >> 16) & 0xff),
            static_cast<unsigned char>((huge >> 24) & 0xff)};
        ASSERT_EQ(::write(fd, header, sizeof(header)),
                  static_cast<ssize_t>(sizeof(header)));
        const auto reply = readFrame(fd, 3000, kDistMaxFrameBytes);
        EXPECT_NE(reply.kind, FrameResult::Kind::Payload);
        ::close(fd);
    }

    EXPECT_TRUE(eventually([&] {
        const auto stats = server.stats();
        return stats.handshakeFailures >= 1 &&
               stats.invalidMessages >= 1 &&
               stats.oversizedFrames >= 1;
    })) << "hostile frames were not classified";

    // The daemon still serves a well-behaved client afterwards.
    {
        const auto fd = connectTcp("127.0.0.1", server.port(), 2000);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(writeFrame(*fd, encodeDistHello()).ok());
        const auto welcome = readFrame(*fd, 3000, kDistMaxFrameBytes);
        ASSERT_TRUE(welcome.ok()) << welcome.error;
        const auto decoded = decodeDistMessage(welcome.payload);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded->kind, DistMessage::Kind::Welcome);
        EXPECT_GT(decoded->capacity, 0);

        JobPolicy policy;
        ASSERT_TRUE(writeFrame(*fd, encodeDistJob(1, smallJob(),
                                                  policy, 0, nullptr))
                        .ok());
        const FrameResult frame =
            readFrame(*fd, 10000, kDistMaxFrameBytes);
        ASSERT_TRUE(frame.ok()) << frame.error;
        const auto result = decodeDistMessage(frame.payload);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_EQ(result->kind, DistMessage::Kind::Result);
        EXPECT_EQ(result->id, 1u);
        ASSERT_TRUE(result->result.has_value());
        EXPECT_EQ(result->result->outcome, JobOutcome::Ok);
        ::close(*fd);
    }

    server.stop();
    serving.join();
}

/** Lines of /proc/self/maps: one per mapping, so every thread stack
 *  that is never unmapped shows up. */
int
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    int lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

/** The "Threads:" field of /proc/self/status. */
int
threadCount()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    return -1;
}

/** Connect to an in-process daemon and complete the handshake. */
int
welcomedClient(const WorkerdServer &server)
{
    const auto fd = connectTcp("127.0.0.1", server.port(), 2000);
    EXPECT_TRUE(fd.ok()) << fd.status().toString();
    if (!fd.ok())
        return -1;
    EXPECT_TRUE(writeFrame(*fd, encodeDistHello()).ok());
    const auto welcome = readFrame(*fd, 3000, kDistMaxFrameBytes);
    EXPECT_TRUE(welcome.ok()) << welcome.error;
    return *fd;
}

TEST(WorkerdHardening, MappingsStayFlatOverManyJobsAndConnections)
{
    WorkerdOptions options;
    options.workers = 1;
    WorkerdServer server(std::move(options));
    ASSERT_TRUE(server.start().ok());
    std::thread serving([&] { server.run(); });

    const int fd = welcomedClient(server);
    ASSERT_GE(fd, 0);
    const JobPolicy policy;
    auto runJobs = [&](uint64_t first, int count) {
        for (uint64_t id = first; id < first + count; ++id) {
            ASSERT_TRUE(writeFrame(fd, encodeDistJob(id, smallJob(),
                                                     policy, 0, nullptr))
                            .ok());
            const FrameResult frame =
                readFrame(fd, 10000, kDistMaxFrameBytes);
            ASSERT_TRUE(frame.ok()) << frame.error;
            const auto result = decodeDistMessage(frame.payload);
            ASSERT_TRUE(result.ok()) << result.status().toString();
            ASSERT_EQ(result->id, id);
        }
    };
    auto shortConnections = [&](int count) {
        for (int k = 0; k < count; ++k) {
            const int client = welcomedClient(server);
            ASSERT_GE(client, 0);
            ::close(client);
        }
    };

    // Warm up with as many connections as are measured: allocator
    // arenas and a sanitizer runtime's per-thread bookkeeping grow to
    // a high-water mark over the first threads, joined or not.
    runJobs(1, 5);
    shortConnections(50);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const int before = mappingCount();

    // A thread per job or per connection that nobody joins keeps its
    // stack and guard page mapped: about two lines each.
    runJobs(100, 300);
    shortConnections(50);
    EXPECT_TRUE(eventually([&] { return mappingCount() <= before + 64; }))
        << "maps grew from " << before << " to " << mappingCount()
        << " lines over 300 jobs and 50 connections";
    // resultsSent is counted after the write the client already read.
    EXPECT_TRUE(
        eventually([&] { return server.stats().resultsSent == 305; }));

    ::close(fd);
    server.stop();
    serving.join();
}

TEST(WorkerdHardening, DrainDropsJobsQueuedBeyondCapacity)
{
    InterruptGuard guard;  // the drain escalates in-flight jobs
    WorkerdOptions options;
    options.workers = 1;
    WorkerdServer server(std::move(options));
    ASSERT_TRUE(server.start().ok());
    std::thread serving([&] { server.run(); });

    const int fd = welcomedClient(server);
    ASSERT_GE(fd, 0);
    const int threads_before = threadCount();

    // Three slow jobs on a one-worker daemon: one runs, two queue.
    const FaultPlan slow = mustParse("runner.job.start=slow:ms=1000");
    JobPolicy policy;
    policy.faults = &slow;
    for (uint64_t id = 1; id <= 3; ++id)
        ASSERT_TRUE(writeFrame(fd, encodeDistJob(id, smallJob(), policy,
                                                 0, nullptr))
                        .ok());
    ASSERT_TRUE(eventually([&] { return server.stats().jobsRun == 1; }));
    // Once the reader has taken all three frames, the queued jobs wait
    // in the daemon's job pool, not on threads of their own.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_LE(threadCount(), threads_before);

    const auto drain_start = Clock::now();
    server.stop();
    serving.join();
    EXPECT_LT(Clock::now() - drain_start, std::chrono::seconds(5));

    const WorkerdStats stats = server.stats();
    EXPECT_EQ(stats.jobsRun, 1u);  // the queued two never started
    EXPECT_EQ(stats.resultsSent, 0u);
    EXPECT_EQ(stats.resultsDropped, 3u);
    ::close(fd);
}

// --- End-to-end fleet --------------------------------------------------

TEST(DistFleet, ReportIsByteIdenticalToInProcessAtAnyHostCount)
{
    InterruptGuard guard;
    const auto baseline = runGrid(smallGrid(/*jobs=*/4));
    ASSERT_TRUE(baseline.allOk());

    auto daemon_a = forkWorkerd();
    auto daemon_b = forkWorkerd();
    ASSERT_GT(daemon_a.port, 0);
    ASSERT_GT(daemon_b.port, 0);

    for (const auto &hosts : std::vector<std::vector<std::string>>{
             {endpoint(daemon_a)},
             {endpoint(daemon_a), endpoint(daemon_b)}}) {
        auto grid = smallGrid(/*jobs=*/4);
        grid.hosts = hosts;
        const auto report = runGrid(grid);
        EXPECT_TRUE(report.allOk());
        EXPECT_EQ(deterministicJson(report),
                  deterministicJson(baseline))
            << "fleet of " << hosts.size() << " diverged";
    }
}

TEST(DistFleet, LeaseReassignsAcrossAnInjectedPartition)
{
    InterruptGuard guard;
    const auto baseline = runGrid(smallGrid(/*jobs=*/4));
    ASSERT_TRUE(baseline.allOk());

    auto daemon_a = forkWorkerd();
    auto daemon_b = forkWorkerd();
    ASSERT_GT(daemon_a.port, 0);
    ASSERT_GT(daemon_b.port, 0);

    // Partition the first dispatch of every fir cell: the chosen
    // host's connection drops and refuses reconnects for the
    // partition window, so the lease must reassign to the other host.
    const auto plan = mustParse("net.partition=fail:nth=1:match=fir/*");
    const DistOptions dist = fastDistOptions();
    auto grid = smallGrid(/*jobs=*/4);
    grid.hosts = {endpoint(daemon_a), endpoint(daemon_b)};
    grid.dist = &dist;
    grid.faults = &plan;
    const auto report = runGrid(grid);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(deterministicJson(report), deterministicJson(baseline));
}

TEST(DistFleet, SigkillOfOneDaemonMidGridHeals)
{
    InterruptGuard guard;
    const auto baseline = runGrid(smallGrid(/*jobs=*/4));
    ASSERT_TRUE(baseline.allOk());

    auto daemon_a = forkWorkerd();
    auto daemon_b = forkWorkerd();
    ASSERT_GT(daemon_a.port, 0);
    ASSERT_GT(daemon_b.port, 0);

    // Slow every job so the SIGKILL lands while leases are in flight.
    const auto plan = mustParse("runner.job.start=slow:ms=120");
    const DistOptions dist = fastDistOptions();
    auto grid = smallGrid(/*jobs=*/4);
    grid.hosts = {endpoint(daemon_a), endpoint(daemon_b)};
    grid.dist = &dist;
    grid.faults = &plan;

    GridReport report;
    std::thread running([&] { report = runGrid(grid); });
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    ::kill(daemon_a.pid, SIGKILL);
    running.join();

    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(deterministicJson(report), deterministicJson(baseline));
}

TEST(DistFleet, WorkerdCrashPointHealsViaTheOtherHost)
{
    InterruptGuard guard;
    const auto baseline = runGrid(smallGrid(/*jobs=*/2));
    ASSERT_TRUE(baseline.allOk());

    // Daemon A kills itself (SIGKILL, via the deterministic
    // workerd.crash point) on its second dispatched job; daemon B
    // absorbs the reassigned leases.
    auto daemon_a = forkWorkerd(2, "workerd.crash=fail:nth=2");
    auto daemon_b = forkWorkerd();
    ASSERT_GT(daemon_a.port, 0);
    ASSERT_GT(daemon_b.port, 0);

    const DistOptions dist = fastDistOptions();
    auto grid = smallGrid(/*jobs=*/2);
    grid.hosts = {endpoint(daemon_a), endpoint(daemon_b)};
    grid.dist = &dist;
    const auto report = runGrid(grid);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(deterministicJson(report), deterministicJson(baseline));
}

TEST(DistFleet, CrashLoopingHostIsQuarantinedAndJobsStillMatch)
{
    InterruptGuard guard;
    const GridSpec grid = smallGrid();
    GridReport in_process;
    for (const JobSpec &job : expandGrid(grid))
        in_process.results.push_back(runJob(job));

    // Fork before the acceptor thread exists.
    auto daemon = forkWorkerd();
    ASSERT_GT(daemon.port, 0);

    // A host that accepts TCP but never answers the hello: every
    // handshake times out, and each one counts as a connection loss.
    const auto listening = listenTcp("127.0.0.1", 0);
    ASSERT_TRUE(listening.ok()) << listening.status().toString();
    const auto black_hole = boundTcpPort(*listening);
    ASSERT_TRUE(black_hole.ok());
    std::atomic<bool> done{false};
    std::vector<int> held;
    std::thread acceptor([&] {
        while (!done.load()) {
            const auto client = acceptClient(*listening, 50);
            if (client.ok())
                held.push_back(*client);
        }
    });

    DistOptions options = fastDistOptions();
    options.hosts = {endpoint(daemon),
                     "127.0.0.1:" + std::to_string(*black_hole)};
    options.connectTimeoutMs = 200;
    options.crashLoopThreshold = 2;
    RemoteWorkerPool pool(options);
    const Status started = pool.start();
    ASSERT_TRUE(started.ok()) << started.toString();

    GridReport fleet;
    for (const JobSpec &job : expandGrid(grid))
        fleet.results.push_back(pool.run(job, JobPolicy{}));
    EXPECT_TRUE(eventually(
        [&] { return pool.stats().quarantines >= 1; }, 10000))
        << "the silent host was never quarantined";
    pool.shutdown();

    done.store(true);
    acceptor.join();
    for (const int fd : held)
        ::close(fd);
    ::close(*listening);

    EXPECT_EQ(deterministicJson(fleet), deterministicJson(in_process));
}

TEST(DistFleet, TotalFleetLossIsAStructuredHostLostOutcome)
{
    InterruptGuard guard;
    RemoteWorkerPool pool(fastDistOptions());
    // No endpoints at all: start() must fail with a structured
    // status, not hang or crash.
    const Status started = pool.start();
    EXPECT_FALSE(started.ok());
}

// --- Journal + resume across execution modes ---------------------------

TEST(DistJournal, FleetRunInterruptedThenResumedInProcess)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");
    const auto baseline = runGrid(smallGrid(/*jobs=*/4));
    ASSERT_TRUE(baseline.allOk());

    auto daemon = forkWorkerd();
    ASSERT_GT(daemon.port, 0);

    // The injected interrupt travels in the job frame, fires inside
    // the daemon, and comes back as a genuine `interrupted` result
    // that drains the client grid -- exactly the --isolate semantics.
    const auto plan =
        mustParse("runner.interrupt=fail:match=fir/vliw2/convergent");
    auto interrupted = smallGrid(/*jobs=*/2);
    interrupted.hosts = {endpoint(daemon)};
    interrupted.journalPath = path;
    interrupted.faults = &plan;
    const auto partial = runGrid(interrupted);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_GT(partial.summary.interrupted, 0);

    // Resume *in-process*: the journal written by the fleet run must
    // replay under any execution mode (the fingerprint excludes the
    // packaging), completing to a byte-identical report.
    clearInterrupt();
    auto resumed_grid = smallGrid(/*jobs=*/4);
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.replayed, partial.summary.ok);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(baseline));
}

TEST(DistJournal, InProcessJournalResumesOnAFleet)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");
    const auto baseline = runGrid(smallGrid(/*jobs=*/4));
    ASSERT_TRUE(baseline.allOk());

    const auto plan =
        mustParse("runner.interrupt=fail:match=fir/vliw2/convergent");
    auto interrupted = smallGrid(/*jobs=*/2);
    interrupted.journalPath = path;
    interrupted.faults = &plan;
    const auto partial = runGrid(interrupted);
    EXPECT_TRUE(partial.interrupted);

    clearInterrupt();
    auto daemon_a = forkWorkerd();
    auto daemon_b = forkWorkerd();
    ASSERT_GT(daemon_a.port, 0);
    ASSERT_GT(daemon_b.port, 0);
    auto resumed_grid = smallGrid(/*jobs=*/4);
    resumed_grid.hosts = {endpoint(daemon_a), endpoint(daemon_b)};
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.replayed, partial.summary.ok);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(baseline));
}

} // namespace
} // namespace csched
