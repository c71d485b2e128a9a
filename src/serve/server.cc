#include "serve/server.hh"

#include <chrono>
#include <cstdio>

#include <sys/socket.h>
#include <unistd.h>

#include "eval/experiment.hh"
#include "runner/shutdown.hh"
#include "support/socket.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

using Clock = std::chrono::steady_clock;

int64_t
steadyMs(Clock::time_point when = Clock::now())
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               when.time_since_epoch())
        .count();
}

double
elapsedMs(Clock::time_point since, Clock::time_point now)
{
    return std::chrono::duration<double, std::milli>(now - since)
        .count();
}

} // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)), cache_(options_.cacheCapacity),
      crashLoop_("serve.degrade", options_.crashLoopThreshold,
                 options_.degradeCooldownMs)
{
}

Server::~Server()
{
    if (started_ && !finished_) {
        stop_.store(true);
        (void)drainAndExit();
    }
}

Status
Server::start()
{
    // Fork the pool first: workers must not inherit the listen fd,
    // and WorkerPool wants a single-threaded process.
    pool_ = std::make_unique<WorkerPool>(options_.workers,
                                         options_.memLimitMb);

    auto listening = listenUnix(options_.socketPath);
    if (!listening.ok()) {
        pool_.reset();
        return listening.status().withContext("csched_serve");
    }
    listenFd_ = *listening;

    dispatchers_ = std::make_unique<ThreadPool>(options_.dispatchers);

    started_ = true;
    if (options_.verbose)
        std::fprintf(stderr,
                     "[csched_serve] listening on %s (%d workers, %d "
                     "dispatchers, queue %zu)\n",
                     options_.socketPath.c_str(), options_.workers,
                     options_.dispatchers, options_.queueCapacity);
    return Status();
}

int
Server::run()
{
    CSCHED_ASSERT(started_, "Server::run() before start()");
    FaultScope acceptScope(options_.faults, "serve/accept");
    readers_.acceptUntil(
        listenFd_, [this] { return drainingNow(); },
        [&](int fd) -> std::function<void()> {
            counters_.connections.fetch_add(1);
            try {
                acceptScope.hit("serve.accept");
            } catch (const StatusError &) {
                // Simulated accept pressure: close before reading a
                // single byte, so no request is ever half-owned by the
                // server.
                ::close(fd);
                counters_.acceptRejected.fetch_add(1);
                return nullptr;
            }
            auto session = std::make_shared<Session>(
                fd, ++nextSessionId_, options_.sendTimeoutMs,
                options_.faults);
            return [this, session] { readerMain(session); };
        });
    return drainAndExit();
}

void
Server::stop()
{
    stop_.store(true);
}

bool
Server::drainingNow() const
{
    return stop_.load() || drainRequested();
}

void
Server::readerMain(std::shared_ptr<Session> session)
{
    for (;;) {
        FrameResult frame =
            readFrame(session->fd(), 200, options_.maxFrameBytes);
        if (frame.kind == FrameResult::Kind::Eof)
            break;
        if (frame.kind == FrameResult::Kind::Timeout)
            continue;  // idle; a drain ends readers by EOF (step 4)
        if (frame.kind == FrameResult::Kind::Oversized) {
            // Distinct, structured refusal -- then drop the
            // connection, because the stream is no longer framed (we
            // did not consume the oversized payload).
            counters_.oversizedFrames.fetch_add(1);
            ServeRequest anonymous;
            sendReply(session,
                      makeRejection(anonymous,
                                    Status::invalidSpec(
                                        "refused request frame: " +
                                        frame.error)));
            break;
        }
        if (frame.kind == FrameResult::Kind::Malformed) {
            // Truncation or an I/O error: the peer is gone or
            // garbling; nothing addressable to reply to.
            counters_.malformedFrames.fetch_add(1);
            break;
        }

        uint64_t salvaged_id = 0;
        auto decoded = decodeServeRequest(frame.payload, &salvaged_id);
        if (!decoded.ok()) {
            counters_.invalidRequests.fetch_add(1);
            ServeRequest anonymous;
            anonymous.id = salvaged_id;
            sendReply(session,
                      makeRejection(anonymous, decoded.status()));
            continue;  // framing is intact; keep serving the peer
        }
        counters_.requestsRead.fetch_add(1);
        const ServeRequest &request = *decoded;

        // --- Admission control ------------------------------------
        Status verdict;
        try {
            session->admitScope().hit("serve.admit");
        } catch (const StatusError &err) {
            verdict = err.status;
        }
        if (verdict.ok() && drainingNow())
            verdict = Status::interrupted(
                "the daemon is draining; request not admitted");
        std::string why;
        if (verdict.ok() && degraded(&why))
            verdict = Status::overloaded(why);
        if (verdict.ok()) {
            QueuedRequest item;
            item.session = session;
            item.request = request;
            item.admitted = Clock::now();
            const int deadline_ms = request.deadlineMs > 0
                                        ? request.deadlineMs
                                        : options_.defaultDeadlineMs;
            item.deadline =
                deadline_ms > 0
                    ? item.admitted +
                          std::chrono::milliseconds(deadline_ms)
                    : Clock::time_point::max();
            verdict = admit(std::move(item));
            if (verdict.ok())
                counters_.admitted.fetch_add(1);
        }
        if (!verdict.ok()) {
            if (verdict.code() == ErrorCode::Overloaded)
                counters_.rejectedOverloaded.fetch_add(1);
            else if (verdict.code() == ErrorCode::Interrupted)
                counters_.interruptedReplies.fetch_add(1);
            sendReply(session, makeRejection(request, verdict));
        }
    }
}

Status
Server::admit(QueuedRequest item)
{
    // Checked and submitted under one lock, so no submit can race the
    // drain closing the gate.
    std::lock_guard<std::mutex> lock(admissionMutex_);
    if (admissionsClosed_)
        return Status::interrupted(
            "the daemon is draining; request not admitted");
    if (waiting_ >= options_.queueCapacity)
        return Status::overloaded("request queue is full (" +
                                  std::to_string(options_.queueCapacity) +
                                  " queued); retry later");
    ++waiting_;
    dispatchers_->submit(
        [this, item = std::move(item)]() mutable {
            handle(std::move(item));
        });
    return Status();
}

void
Server::handle(QueuedRequest item)
{
    const Clock::time_point now = Clock::now();
    const double queue_ms = elapsedMs(item.admitted, now);
    bool drained;
    {
        std::lock_guard<std::mutex> lock(admissionMutex_);
        --waiting_;
        drained = admissionsClosed_;
    }

    // Still queued when the drain started: answer, don't run.
    if (drained) {
        counters_.interruptedReplies.fetch_add(1);
        ServeResponse reply = makeRejection(
            item.request, Status::interrupted(
                              "the daemon drained before this request "
                              "was dispatched"));
        reply.queueMs = queue_ms;
        sendReply(item.session, reply);
        return;
    }

    // Aged out while queued: shed without spending a worker.
    if (now >= item.deadline) {
        counters_.shedDeadline.fetch_add(1);
        ServeResponse reply = makeRejection(
            item.request,
            Status::timedOut("deadline expired after " +
                             std::to_string(
                                 static_cast<long>(queue_ms)) +
                             " ms in the admission queue"));
        reply.queueMs = queue_ms;
        sendReply(item.session, reply);
        return;
    }

    const std::string key = cacheKey(item.request);
    ServeResponse reply;
    reply.id = item.request.id;
    reply.queueMs = queue_ms;

    ResultCache::Ticket ticket = cache_.begin(key);
    if (ticket.cached) {
        counters_.cacheHits.fetch_add(1);
        reply.cached = true;
        reply.result = ticket.result;
    } else if (ticket.coalesced) {
        counters_.coalesced.fetch_add(1);
        JobResult result;
        if (!ResultCache::waitFollower(ticket.flight, item.deadline,
                                       &result)) {
            counters_.shedDeadline.fetch_add(1);
            ServeResponse shed = makeRejection(
                item.request,
                Status::timedOut("deadline expired while coalesced "
                                 "onto an identical in-flight "
                                 "request"));
            shed.queueMs = queue_ms;
            sendReply(item.session, shed);
            return;
        }
        reply.coalesced = true;
        reply.result = result;
    } else {
        std::string server_note;
        JobResult result =
            runLeader(item.request, item.deadline, &server_note);
        cache_.finish(key, ticket.flight, result);
        reply.result = result;
        reply.serverDiagnostic = server_note;
    }

    reply.status = serveStatusOf(reply.result);
    if (reply.result.outcome == JobOutcome::Interrupted)
        counters_.interruptedReplies.fetch_add(1);
    sendReply(item.session, reply);
}

JobResult
Server::runLeader(const ServeRequest &request,
                  Clock::time_point deadline, std::string *server_note)
{
    JobResult result;
    result.workload = request.workload;
    result.machine = request.machine;
    result.algorithm = request.algorithm;

    std::string parse_error;
    auto algorithm =
        parseAlgorithmSpec(request.algorithm, &parse_error);
    if (!algorithm.has_value()) {
        result.outcome = JobOutcome::Failed;
        result.error = ErrorCode::InvalidSpec;
        result.diagnostic = "algorithm: " + parse_error;
        return result;
    }

    JobSpec spec;
    spec.workload = request.workload;
    spec.machine = request.machine;
    spec.algorithm = *algorithm;
    spec.computeSpeedup = request.computeSpeedup;

    JobPolicy policy;
    policy.retries = options_.retries;
    policy.faults = options_.faults;
    if (deadline != Clock::time_point::max()) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        policy.deadlineMs =
            static_cast<int>(remaining > 0 ? remaining : 1);
    }

    counters_.jobsRun.fetch_add(1);
    result = pool_->run(spec, policy);
    noteWorkerHealth(result);

    if (result.retriedThenOk()) {
        // The grid's deterministic backoff is a pure function of
        // (job key, attempt), so the delays the supervisor actually
        // slept can be recomputed here for the reply diagnostic
        // without perturbing the result itself.
        counters_.healedRetries.fetch_add(1);
        std::string backoffs;
        for (int attempt = 2; attempt <= result.attempts; ++attempt) {
            if (!backoffs.empty())
                backoffs += ", ";
            backoffs += std::to_string(
                retryBackoffMs(jobKey(spec), attempt));
        }
        *server_note = "healed after " +
                       std::to_string(result.attempts) +
                       " attempts; retry backoff ms: [" + backoffs +
                       "]";
    }
    return result;
}

bool
Server::degraded(std::string *why) const
{
    const int64_t until = degradedUntilMs_.load();
    if (until == 0 || steadyMs() >= until)
        return false;
    *why = "worker pool is crash-looping; admissions refused for a "
           "cooldown window";
    return true;
}

void
Server::noteWorkerHealth(const JobResult &result)
{
    const bool worker_death =
        !result.ok() && (result.error == ErrorCode::WorkerCrashed ||
                         result.error == ErrorCode::WorkerKilled);
    if (!worker_death) {
        if (result.ok())
            crashLoop_.success();
        return;
    }
    counters_.workerDeaths.fetch_add(1);
    // A trip refuses admissions for the breaker's cooldown window.
    const int cooldown = crashLoop_.failure();
    if (cooldown == 0)
        return;
    counters_.degradeTrips.fetch_add(1);
    degradedUntilMs_.store(steadyMs() + cooldown);
    if (options_.verbose)
        std::fprintf(stderr,
                     "[csched_serve] crash loop detected (%d "
                     "consecutive worker deaths); degraded for %d "
                     "ms\n",
                     options_.crashLoopThreshold, cooldown);
}

void
Server::sendReply(const std::shared_ptr<Session> &session,
                  const ServeResponse &response)
{
    const Status sent = session->send(response, options_.timings);
    if (sent.ok())
        counters_.repliesSent.fetch_add(1);
    else
        counters_.replyWriteFailures.fetch_add(1);
}

int
Server::drainAndExit()
{
    const int signum = interruptSignal();
    const std::chrono::milliseconds deadline(options_.drainDeadlineMs);

    // 1. No new connections, no new admissions.
    stop_.store(true);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(options_.socketPath.c_str());
        listenFd_ = -1;
    }
    std::size_t queued;
    {
        std::lock_guard<std::mutex> lock(admissionMutex_);
        admissionsClosed_ = true;
        queued = waiting_;
    }
    if (options_.verbose)
        std::fprintf(stderr,
                     "[csched_serve] draining (%s); %zu queued, "
                     "deadline %d ms\n",
                     signum != 0 ? "signal" : "stop", queued,
                     options_.drainDeadlineMs);

    // 2. In-flight grace: dispatchers finish their current job and
    //    answer the queued backlog with `interrupted`.
    if (!dispatchers_->waitFor(deadline)) {
        // 3. Past the drain deadline: escalate to cooperative
        //    cancellation -- running jobs unwind at their next
        //    checkpoint, hung workers are killed by the watchdog.
        if (options_.verbose)
            std::fprintf(stderr, "[csched_serve] drain deadline "
                                 "passed; escalating\n");
        escalateInterrupt();
    }
    dispatchers_.reset();

    // 4. Every request read so far has its reply written.  Let the
    //    clients finish the handshake: each gets `interrupted` for
    //    anything it still sends, sees the drain, and closes -- the
    //    reader exits on that EOF with nothing lost.  Only clients
    //    that outstay the drain deadline are force-closed.
    if (!readers_.waitAllDone(deadline))
        readers_.shutdownLive(SHUT_RD);
    readers_.joinAll();

    // 5. Reap the worker processes.
    pool_.reset();
    finished_ = true;
    if (options_.verbose)
        std::fprintf(stderr, "[csched_serve] drained; exit %d\n",
                     signum != 0 ? interruptExitCode(signum) : 0);
    return signum != 0 ? interruptExitCode(signum) : 0;
}

ServeStats
Server::stats() const
{
    ServeStats out;
    CSCHED_SERVE_COUNTERS(CSCHED_COUNTER_LOAD)
    return out;
}

} // namespace csched
