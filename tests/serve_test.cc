/**
 * @file
 * Tests for the scheduler-as-a-service layer (serve/): the wire
 * protocol and its untrusted-peer hardening, the LRU + single-flight
 * result cache, the serve-style soft drain (SIGHUP as a drain
 * trigger, double-signal escalation), and end-to-end daemon behaviour
 * on a real UNIX-domain socket -- `overloaded` backpressure from a
 * full admission gate, healing worker crashes with the deterministic
 * backoff in the reply diagnostic, tripping the crash-loop breaker
 * into `overloaded` rejections, replying `interrupted` to a job-level
 * interrupt without draining, and answering the queued backlog with
 * `interrupted` through a signal-driven drain that exits 128+signum.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "runner/job.hh"
#include "runner/shutdown.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "support/fault_injection.hh"
#include "support/socket.hh"
#include "support/status.hh"
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

/**
 * Serve-style handlers for the duration of one test; the destructor
 * restores the grid style every other test in this binary assumes.
 */
struct ServeSignalGuard
{
    ServeSignalGuard()
    {
        clearInterrupt();
        installServeSignalHandlers();
    }
    ~ServeSignalGuard()
    {
        clearInterrupt();
        installGridSignalHandlers();
    }
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
eventually(Predicate pred, int budget_ms = 2000)
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

ServeRequest
makeRequest(uint64_t id, const std::string &workload,
            const std::string &algorithm = "uas")
{
    ServeRequest request;
    request.id = id;
    request.workload = workload;
    request.machine = "vliw2";
    request.algorithm = algorithm;
    return request;
}

JobResult
okResult(const std::string &workload, int makespan = 7)
{
    JobResult result;
    result.workload = workload;
    result.machine = "vliw2";
    result.algorithm = "uas";
    result.algorithmName = "UAS";
    result.makespan = makespan;
    result.instructions = 12;
    result.criticalPathLength = 5;
    return result;
}

// --- Protocol ----------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrips)
{
    ServeRequest request = makeRequest(42, "vvmul", "convergent");
    request.deadlineMs = 1500;
    request.computeSpeedup = true;

    const auto decoded =
        decodeServeRequest(encodeServeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->id, 42u);
    EXPECT_EQ(decoded->workload, "vvmul");
    EXPECT_EQ(decoded->machine, "vliw2");
    EXPECT_EQ(decoded->algorithm, "convergent");
    EXPECT_EQ(decoded->deadlineMs, 1500);
    EXPECT_TRUE(decoded->computeSpeedup);
}

TEST(ServeProtocol, DecodeNamesTheDefectAndSalvagesTheId)
{
    uint64_t salvaged = 0;

    auto bad = decodeServeRequest("this is not json", &salvaged);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("not JSON"),
              std::string::npos)
        << bad.status().toString();

    // A wrong schema still yields an addressable error reply.
    salvaged = 0;
    bad = decodeServeRequest("{\"schema\":\"bogus\",\"id\":9}",
                             &salvaged);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(salvaged, 9u);
    EXPECT_NE(bad.status().message().find("schema"),
              std::string::npos);

    salvaged = 0;
    bad = decodeServeRequest(
        "{\"schema\":\"csched-serve-request-v1\",\"id\":7}",
        &salvaged);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(salvaged, 7u);
    EXPECT_NE(bad.status().message().find("workload"),
              std::string::npos);

    bad = decodeServeRequest(
        "{\"schema\":\"csched-serve-request-v1\",\"id\":-1,"
        "\"workload\":\"vvmul\",\"machine\":\"vliw2\","
        "\"algorithm\":\"uas\"}");
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("non-negative"),
              std::string::npos);
}

TEST(ServeProtocol, ResponseRoundTripsTheEmbeddedResult)
{
    ServeResponse response;
    response.id = 7;
    response.status = "ok";
    response.cached = true;
    response.queueMs = 12.5;
    response.serverDiagnostic = "note";
    response.result = okResult("vvmul");
    response.result.assignment = {0, 1, 0};

    const auto decoded =
        decodeServeResponse(encodeServeResponse(response));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->id, 7u);
    EXPECT_EQ(decoded->status, "ok");
    EXPECT_TRUE(decoded->cached);
    EXPECT_FALSE(decoded->coalesced);
    EXPECT_DOUBLE_EQ(decoded->queueMs, 12.5);
    EXPECT_EQ(decoded->serverDiagnostic, "note");
    EXPECT_EQ(decoded->result.workload, "vvmul");
    EXPECT_EQ(decoded->result.makespan, 7);
    EXPECT_EQ(decoded->result.assignment,
              (std::vector<int>{0, 1, 0}));

    // --no-timings drops the envelope's wall-clock field.
    const auto bare = decodeServeResponse(
        encodeServeResponse(response, /*timings=*/false));
    ASSERT_TRUE(bare.ok()) << bare.status().toString();
    EXPECT_DOUBLE_EQ(bare->queueMs, 0.0);
}

TEST(ServeProtocol, RejectionMapsTheStatusToAnOutcome)
{
    const ServeRequest request = makeRequest(3, "vvmul");

    ServeResponse rejected =
        makeRejection(request, Status::overloaded("queue full"));
    EXPECT_EQ(rejected.id, 3u);
    EXPECT_EQ(rejected.status, "overloaded");
    EXPECT_EQ(rejected.result.outcome, JobOutcome::Failed);
    EXPECT_EQ(rejected.result.error, ErrorCode::Overloaded);
    EXPECT_EQ(rejected.result.diagnostic, "queue full");
    EXPECT_EQ(rejected.result.attempts, 0);

    rejected = makeRejection(request, Status::interrupted("drain"));
    EXPECT_EQ(rejected.status, "interrupted");
    EXPECT_EQ(rejected.result.outcome, JobOutcome::Interrupted);

    rejected = makeRejection(request, Status::timedOut("aged out"));
    EXPECT_EQ(rejected.status, "timeout");
    EXPECT_EQ(rejected.result.outcome, JobOutcome::Timeout);
}

TEST(ServeProtocol, ServeStatusCollapsesOutcomeAndError)
{
    EXPECT_EQ(serveStatusOf(okResult("vvmul")), "ok");
    JobResult crashed;
    crashed.outcome = JobOutcome::Failed;
    crashed.error = ErrorCode::WorkerCrashed;
    EXPECT_EQ(serveStatusOf(crashed), "worker-crashed");
}

// --- Result cache ------------------------------------------------------

TEST(ServeCache, LruKeepsOkResultsAndEvictsTheColdest)
{
    ResultCache cache(2);
    const std::string a = cacheKey(makeRequest(1, "vvmul"));
    const std::string b = cacheKey(makeRequest(2, "fir"));
    const std::string c =
        cacheKey(makeRequest(3, "vvmul", "convergent"));

    auto ticket = cache.begin(a);
    ASSERT_TRUE(ticket.leader());
    cache.finish(a, ticket.flight, okResult("vvmul"));

    ticket = cache.begin(a);
    EXPECT_TRUE(ticket.cached);
    EXPECT_EQ(ticket.result.makespan, 7);

    ticket = cache.begin(b);
    ASSERT_TRUE(ticket.leader());
    cache.finish(b, ticket.flight, okResult("fir", 9));
    ticket = cache.begin(c);
    ASSERT_TRUE(ticket.leader());
    cache.finish(c, ticket.flight, okResult("vvmul", 11));

    // The hit made `a` the most recently used entry, but `b` and `c`
    // came after it: `a` was the coldest and is gone, they remain.
    EXPECT_TRUE(cache.begin(a).leader());
    EXPECT_TRUE(cache.begin(b).cached);
    EXPECT_TRUE(cache.begin(c).cached);
}

TEST(ServeCache, SingleFlightReplaysTheLeaderToFollowers)
{
    ResultCache cache(4);
    const std::string key = cacheKey(makeRequest(1, "vvmul"));

    auto leader = cache.begin(key);
    ASSERT_TRUE(leader.leader());

    JobResult replayed;
    bool follower_ok = false;
    std::thread follower([&] {
        auto ticket = cache.begin(key);
        EXPECT_TRUE(ticket.coalesced);
        follower_ok = ResultCache::waitFollower(
            ticket.flight,
            Clock::now() + std::chrono::seconds(5), &replayed);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cache.finish(key, leader.flight, okResult("vvmul", 13));
    follower.join();

    EXPECT_TRUE(follower_ok);
    EXPECT_EQ(replayed.makespan, 13);
    EXPECT_TRUE(cache.begin(key).cached);
}

TEST(ServeCache, FailuresAreNotCached)
{
    ResultCache cache(4);
    const std::string key = cacheKey(makeRequest(1, "vvmul"));

    auto ticket = cache.begin(key);
    ASSERT_TRUE(ticket.leader());
    JobResult failed;
    failed.outcome = JobOutcome::Failed;
    failed.error = ErrorCode::WorkerCrashed;
    cache.finish(key, ticket.flight, failed);

    // The next identical request retries for real.
    EXPECT_TRUE(cache.begin(key).leader());
}

// --- Serve-style shutdown (satellite: SIGHUP + double signal) ----------

TEST(ServeShutdown, SoftDrainRecordsWithoutCancelling)
{
    ServeSignalGuard guard;
    EXPECT_FALSE(drainRequested());

    requestInterrupt(SIGHUP);
    EXPECT_TRUE(drainRequested());
    EXPECT_FALSE(interruptRequested());  // in-flight work keeps going
    EXPECT_EQ(interruptSignal(), SIGHUP);

    escalateInterrupt();  // the drain deadline passed
    EXPECT_TRUE(interruptRequested());
    EXPECT_EQ(interruptExitCode(SIGHUP), 129);
    EXPECT_EQ(interruptExitCode(SIGTERM), 143);
}

TEST(ServeShutdown, SighupIsADrainTriggerLikeAnyOther)
{
    InterruptGuard guard;
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        installServeSignalHandlers();
        ::raise(SIGHUP);
        const bool good = drainRequested() &&
                          !interruptRequested() &&
                          interruptSignal() == SIGHUP;
        ::_exit(good ? 0 : 3);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeShutdown, SecondSignalEscalatesToImmediateDeath)
{
    InterruptGuard guard;

    // Same signal twice: the second delivery restores SIG_DFL and
    // re-raises, so the process dies by the real signal.
    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        installServeSignalHandlers();
        ::raise(SIGTERM);
        if (!drainRequested())
            ::_exit(3);
        ::raise(SIGTERM);
        ::_exit(4);  // unreachable: the re-raise killed us
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGTERM);

    // A *different* second drain signal escalates just the same.
    pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        installServeSignalHandlers();
        ::raise(SIGTERM);
        ::raise(SIGINT);
        ::_exit(4);
    }
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGINT);
}

// --- End-to-end daemon -------------------------------------------------

ServeOptions
baseOptions(const std::string &socket_path)
{
    ServeOptions options;
    options.socketPath = socket_path;
    options.workers = 1;
    options.dispatchers = 2;
    options.queueCapacity = 16;
    options.cacheCapacity = 8;
    options.defaultDeadlineMs = 30000;
    options.retries = 0;
    options.drainDeadlineMs = 3000;
    return options;
}

/** A daemon running on its own thread for the duration of a test. */
struct RunningServer
{
    Server server;
    std::thread thread;
    int exitCode = -1;
    bool startOk = false;

    explicit RunningServer(ServeOptions options)
        : server(std::move(options))
    {
        const Status started = server.start();
        EXPECT_TRUE(started.ok()) << started.toString();
        if (!started.ok())
            return;
        startOk = true;
        thread = std::thread([this] { exitCode = server.run(); });
    }
    /** Programmatic drain; returns run()'s exit code. */
    int finish()
    {
        server.stop();
        if (thread.joinable())
            thread.join();
        return exitCode;
    }
    ~RunningServer()
    {
        server.stop();
        if (thread.joinable())
            thread.join();
    }
};

int
connectTo(const std::string &socket_path)
{
    const auto fd = connectUnix(socket_path, 2000);
    EXPECT_TRUE(fd.ok()) << fd.status().toString();
    return fd.ok() ? *fd : -1;
}

StatusOr<ServeResponse>
readReply(int fd, int timeout_ms = 15000)
{
    const FrameResult frame =
        readFrame(fd, timeout_ms, kServeMaxFrameBytes);
    if (frame.kind != FrameResult::Kind::Payload)
        return Status::internal("no reply frame: " + frame.error);
    return decodeServeResponse(frame.payload);
}

ServeResponse
roundTrip(int fd, const ServeRequest &request)
{
    const Status sent = writeFrame(fd, encodeServeRequest(request));
    EXPECT_TRUE(sent.ok()) << sent.toString();
    const auto reply = readReply(fd);
    EXPECT_TRUE(reply.ok()) << reply.status().toString();
    return reply.ok() ? *reply : ServeResponse();
}

TEST(ServeDaemon, ServesScheduleRequestsAndCachesRepeats)
{
    InterruptGuard guard;
    RunningServer running(baseOptions(tempPath("sock")));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);

    const ServeResponse first = roundTrip(fd, makeRequest(1, "vvmul"));
    EXPECT_EQ(first.id, 1u);
    EXPECT_EQ(first.status, "ok");
    EXPECT_FALSE(first.cached);
    EXPECT_GT(first.result.makespan, 0);
    EXPECT_EQ(first.result.workload, "vvmul");

    const ServeResponse again = roundTrip(fd, makeRequest(2, "vvmul"));
    EXPECT_EQ(again.id, 2u);
    EXPECT_EQ(again.status, "ok");
    EXPECT_TRUE(again.cached);  // no second job ran
    EXPECT_EQ(again.result.makespan, first.result.makespan);
    ::close(fd);

    const ServeStats stats = running.server.stats();
    EXPECT_EQ(stats.jobsRun, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
    // repliesSent is counted *after* the write, so the client can race
    // ahead of the counter; wait for it instead of snapshotting.
    EXPECT_TRUE(eventually([&] {
        return running.server.stats().repliesSent == 2;
    }));
    EXPECT_EQ(running.finish(), 0);  // programmatic stop, not a signal
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

TEST(ServeDaemon, FinishedReadersAreJoinedNotLeaked)
{
    InterruptGuard guard;
    RunningServer running(baseOptions(tempPath("sock")));
    ASSERT_TRUE(running.startOk);

    // One connection per request; a reader thread that nobody joins
    // keeps its stack and guard page mapped, about two lines each.
    auto oneShot = [&](uint64_t id) {
        const int fd = connectTo(running.server.socketPath());
        ASSERT_GE(fd, 0);
        EXPECT_EQ(roundTrip(fd, makeRequest(id, "vvmul")).status, "ok");
        ::close(fd);
    };
    // Warm up with as many connections as are measured: allocator
    // arenas and a sanitizer runtime's per-thread bookkeeping grow to
    // a high-water mark over the first hundred threads, joined or not.
    for (uint64_t id = 1; id <= 100; ++id)
        oneShot(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const int before = mappingCount();

    for (uint64_t id = 101; id <= 200; ++id)
        oneShot(id);
    EXPECT_TRUE(eventually([&] { return mappingCount() <= before + 40; }))
        << "maps grew from " << before << " to " << mappingCount()
        << " lines over 100 connections";
    EXPECT_EQ(running.server.stats().connections, 200u);
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, BadFramesGetStructuredRepliesAndTheConnectionLives)
{
    InterruptGuard guard;
    RunningServer running(baseOptions(tempPath("sock")));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);

    // Garbage payload in a well-formed frame: a structured
    // invalid-spec reply, and the stream keeps serving.
    ASSERT_TRUE(writeFrame(fd, "this is not json").ok());
    auto reply = readReply(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->status, "invalid-spec");
    EXPECT_EQ(reply->id, 0u);

    // A wrong-schema object still gets addressed by its salvaged id.
    ASSERT_TRUE(writeFrame(fd, "{\"schema\":\"bogus\",\"id\":9}").ok());
    reply = readReply(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->id, 9u);
    EXPECT_EQ(reply->status, "invalid-spec");

    // An unparseable algorithm fails the job, not the daemon.
    const ServeResponse bad_algorithm =
        roundTrip(fd, makeRequest(3, "vvmul", "nope"));
    EXPECT_EQ(bad_algorithm.status, "invalid-spec");
    EXPECT_NE(bad_algorithm.result.diagnostic.find("algorithm"),
              std::string::npos)
        << bad_algorithm.result.diagnostic;

    // ...and the same connection still schedules real work.
    EXPECT_EQ(roundTrip(fd, makeRequest(4, "vvmul")).status, "ok");
    ::close(fd);

    EXPECT_EQ(running.server.stats().invalidRequests, 2u);
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, OversizedFrameIsRefusedThenDropped)
{
    InterruptGuard guard;
    ServeOptions options = baseOptions(tempPath("sock"));
    options.maxFrameBytes = 4096;
    RunningServer running(std::move(options));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);

    // A hostile length prefix: 100000 bytes against a 4096 cap.  The
    // refusal arrives before any payload is read.
    const uint32_t length = 100000;
    const unsigned char prefix[4] = {
        static_cast<unsigned char>(length & 0xff),
        static_cast<unsigned char>((length >> 8) & 0xff),
        static_cast<unsigned char>((length >> 16) & 0xff),
        static_cast<unsigned char>((length >> 24) & 0xff)};
    ASSERT_EQ(::write(fd, prefix, sizeof prefix),
              static_cast<ssize_t>(sizeof prefix));

    const auto reply = readReply(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->status, "invalid-spec");
    EXPECT_NE(reply->result.diagnostic.find("refused request frame"),
              std::string::npos)
        << reply->result.diagnostic;

    // The stream is no longer framed, so the server hangs up on us...
    EXPECT_EQ(readFrame(fd, 2000).kind, FrameResult::Kind::Eof);
    ::close(fd);

    // ...but stays healthy for the next client.
    const int fresh = connectTo(running.server.socketPath());
    ASSERT_GE(fresh, 0);
    EXPECT_EQ(roundTrip(fresh, makeRequest(1, "vvmul")).status, "ok");
    ::close(fresh);

    EXPECT_EQ(running.server.stats().oversizedFrames, 1u);
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, TruncatedFrameDropsOnlyThatConnection)
{
    InterruptGuard guard;
    RunningServer running(baseOptions(tempPath("sock")));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);

    // Promise 64 bytes, deliver 8, die: the classic half-written
    // frame of a crashed peer.
    const unsigned char prefix[4] = {64, 0, 0, 0};
    ASSERT_EQ(::write(fd, prefix, sizeof prefix),
              static_cast<ssize_t>(sizeof prefix));
    ASSERT_EQ(::write(fd, "partial!", 8), 8);
    ::close(fd);

    EXPECT_TRUE(eventually([&] {
        return running.server.stats().malformedFrames >= 1;
    })) << "truncated frame was never classified";

    const int fresh = connectTo(running.server.socketPath());
    ASSERT_GE(fresh, 0);
    EXPECT_EQ(roundTrip(fresh, makeRequest(1, "vvmul")).status, "ok");
    ::close(fresh);
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, WorkerCrashHealsWithBackoffInTheDiagnostic)
{
    InterruptGuard guard;
    // The worker dies on the first dispatch only; the supervisor
    // respawns it, the retry re-dispatches, and the reply arrives
    // healed -- with the deterministic backoff it slept recorded in
    // the serve envelope.
    const auto plan =
        mustParse("worker.crash=fail:match=vvmul/vliw2/uas:nth=1");
    ServeOptions options = baseOptions(tempPath("sock"));
    options.retries = 1;
    options.faults = &plan;
    RunningServer running(std::move(options));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);
    const ServeResponse healed =
        roundTrip(fd, makeRequest(1, "vvmul"));
    ::close(fd);

    EXPECT_EQ(healed.status, "ok");
    EXPECT_EQ(healed.result.attempts, 2);
    EXPECT_TRUE(healed.result.retriedThenOk());
    const std::string expected_note =
        "healed after 2 attempts; retry backoff ms: [" +
        std::to_string(retryBackoffMs("vvmul/vliw2/uas", 2)) + "]";
    EXPECT_EQ(healed.serverDiagnostic, expected_note);

    const ServeStats stats = running.server.stats();
    // workerDeaths counts *terminal* worker-death results; a healed
    // crash shows up as a healed retry instead.
    EXPECT_EQ(stats.workerDeaths, 0u);
    EXPECT_EQ(stats.healedRetries, 1u);
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, CrashLoopTripsTheBreakerIntoOverloaded)
{
    InterruptGuard guard;
    // Every dispatch kills its worker: a poisoned request stream.
    const auto plan = mustParse("worker.crash=fail");
    ServeOptions options = baseOptions(tempPath("sock"));
    options.faults = &plan;
    options.crashLoopThreshold = 2;
    options.degradeCooldownMs = 60000;  // hold the window for the test
    RunningServer running(std::move(options));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);

    // Two consecutive worker deaths trip the breaker...
    EXPECT_EQ(roundTrip(fd, makeRequest(1, "vvmul")).status,
              "worker-crashed");
    EXPECT_EQ(roundTrip(fd, makeRequest(2, "fir")).status,
              "worker-crashed");

    // ...and the degraded window refuses admission outright: no
    // worker is spent on a stream that is killing the pool.
    const ServeResponse refused =
        roundTrip(fd, makeRequest(3, "vvmul", "convergent"));
    EXPECT_EQ(refused.status, "overloaded");
    EXPECT_NE(refused.result.diagnostic.find("crash-looping"),
              std::string::npos)
        << refused.result.diagnostic;
    ::close(fd);

    const ServeStats stats = running.server.stats();
    EXPECT_EQ(stats.workerDeaths, 2u);
    EXPECT_EQ(stats.degradeTrips, 1u);
    EXPECT_EQ(stats.rejectedOverloaded, 1u);
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, JobLevelInterruptIsRepliedToAndNeverDrainsTheDaemon)
{
    InterruptGuard guard;
    // An injected runner.interrupt fires inside one request's job.  It
    // belongs to that job alone: the reply says `interrupted`, and the
    // daemon keeps serving instead of draining on it.
    const auto plan =
        mustParse("runner.interrupt=fail:match=vvmul/vliw2/uas");
    ServeOptions options = baseOptions(tempPath("sock"));
    options.faults = &plan;
    RunningServer running(std::move(options));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);
    EXPECT_EQ(roundTrip(fd, makeRequest(1, "vvmul")).status,
              "interrupted");
    EXPECT_EQ(roundTrip(fd, makeRequest(2, "fir")).status, "ok");
    ::close(fd);

    EXPECT_FALSE(drainRequested());
    EXPECT_EQ(running.server.stats().interruptedReplies, 1u);
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, FullQueueRepliesOverloadedAndKeepsServing)
{
    InterruptGuard guard;
    // One dispatcher and room for one waiting request; the first job
    // stalls 600 ms at its first pass application.
    const auto plan = mustParse(
        "pass.apply=slow:ms=600:match=vvmul/vliw2/convergent:nth=1");
    ServeOptions options = baseOptions(tempPath("sock"));
    options.dispatchers = 1;
    options.queueCapacity = 1;
    options.faults = &plan;
    RunningServer running(std::move(options));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeFrame(fd, encodeServeRequest(
                                   makeRequest(1, "vvmul", "convergent")))
                    .ok());
    // Request 1 has left the queue once its job runs; then request 2
    // takes the one free place and request 3 finds the queue full.
    ASSERT_TRUE(eventually(
        [&] { return running.server.stats().jobsRun == 1; }));
    for (const ServeRequest &request :
         {makeRequest(2, "fir"), makeRequest(3, "fir", "convergent")})
        ASSERT_TRUE(
            writeFrame(fd, encodeServeRequest(request)).ok());

    std::map<uint64_t, std::string> statuses;
    for (int k = 0; k < 3; ++k) {
        const auto reply = readReply(fd);
        ASSERT_TRUE(reply.ok()) << reply.status().toString();
        EXPECT_TRUE(statuses.emplace(reply->id, reply->status).second)
            << "second reply for request " << reply->id;
    }
    EXPECT_EQ(statuses[1], "ok");
    EXPECT_EQ(statuses[2], "ok");
    EXPECT_EQ(statuses[3], "overloaded");

    // The refusal cost the daemon nothing: the next request is served.
    EXPECT_EQ(roundTrip(fd, makeRequest(4, "jacobi")).status, "ok");
    EXPECT_EQ(readFrame(fd, 200, kServeMaxFrameBytes).kind,
              FrameResult::Kind::Timeout)
        << "a request got more than one reply";
    ::close(fd);

    const ServeStats stats = running.server.stats();
    EXPECT_EQ(stats.rejectedOverloaded, 1u);
    EXPECT_EQ(stats.admitted, 3u);
    EXPECT_TRUE(eventually([&] {
        return running.server.stats().repliesSent == 4;
    }));
    EXPECT_EQ(running.finish(), 0);
}

TEST(ServeDaemon, SignalDrainAnswersTheBacklogAndExits143)
{
    ServeSignalGuard guard;
    // One dispatcher, and the first job (convergent: the pass.apply
    // point lives in its pass loop) stalls 600 ms at its first pass
    // application -- so requests 2 and 3 are still queued when the
    // drain starts.
    const auto plan = mustParse(
        "pass.apply=slow:ms=600:match=vvmul/vliw2/convergent:nth=1");
    ServeOptions options = baseOptions(tempPath("sock"));
    options.dispatchers = 1;
    options.faults = &plan;
    options.drainDeadlineMs = 5000;
    RunningServer running(std::move(options));
    ASSERT_TRUE(running.startOk);

    const int fd = connectTo(running.server.socketPath());
    ASSERT_GE(fd, 0);
    for (const ServeRequest &request :
         {makeRequest(1, "vvmul", "convergent"), makeRequest(2, "fir"),
          makeRequest(3, "fir", "convergent")})
        ASSERT_TRUE(
            writeFrame(fd, encodeServeRequest(request)).ok());

    // Let the reader admit all three, then deliver the drain signal
    // while request 1 is mid-schedule.
    ASSERT_TRUE(eventually(
        [&] { return running.server.stats().admitted == 3; }));
    requestInterrupt(SIGTERM);

    // Exactly one reply per request: the in-flight job finishes, the
    // queued backlog is answered with `interrupted`.
    std::map<uint64_t, std::string> statuses;
    for (int k = 0; k < 3; ++k) {
        const auto reply = readReply(fd);
        ASSERT_TRUE(reply.ok()) << reply.status().toString();
        statuses[reply->id] = reply->status;
    }
    ::close(fd);  // a well-behaved client closes on seeing the drain

    if (running.thread.joinable())
        running.thread.join();
    EXPECT_EQ(running.exitCode, 143);  // 128 + SIGTERM

    EXPECT_EQ(statuses[1], "ok");
    EXPECT_EQ(statuses[2], "interrupted");
    EXPECT_EQ(statuses[3], "interrupted");
    EXPECT_EQ(running.server.stats().interruptedReplies, 2u);
}

} // namespace
} // namespace csched
