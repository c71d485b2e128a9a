#include "dist/workerd.hh"

#include <chrono>
#include <csignal>
#include <cstdio>

#include <sys/socket.h>
#include <unistd.h>

#include "runner/shutdown.hh"
#include "runner/thread_pool.hh"
#include "runner/worker.hh"
#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/socket.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

/** Budget for a new connection's hello frame. */
constexpr int kHandshakeTimeoutMs = 5000;

/** Idle tick for reader loops, so drain flags are polled. */
constexpr int kReadTickMs = 200;

} // namespace

/** One accepted client connection. */
struct WorkerdServer::Connection
{
    explicit Connection(int fd) : fd(fd) {}
    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Serialize frame writes (reader pongs vs job results). */
    Status send(const std::string &payload)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        return writeFrame(fd, payload);
    }

    int fd = -1;
    std::mutex writeMutex;
};

/** The WorkerdStats fields in atomic form. */
struct WorkerdServer::Counters
{
    CSCHED_WORKERD_COUNTERS(CSCHED_COUNTER_ATOMIC)
};

WorkerdServer::WorkerdServer(WorkerdOptions options)
    : options_(std::move(options)),
      counters_(std::make_unique<Counters>())
{
}

WorkerdServer::~WorkerdServer()
{
    if (started_ && !finished_) {
        stop_.store(true);
        (void)drainAndExit();
    }
}

Status
WorkerdServer::start()
{
    capacity_ = options_.workers > 0
                    ? options_.workers
                    : ThreadPool::defaultConcurrency();

    // Fork the pool first: workers must not inherit the listen fd,
    // and WorkerPool wants a single-threaded process.
    pool_ = std::make_unique<WorkerPool>(capacity_,
                                         options_.memLimitMb);
    crashScope_ =
        std::make_unique<FaultScope>(options_.faults, "workerd");

    auto listening = listenTcp(options_.host, options_.port);
    if (!listening.ok()) {
        pool_.reset();
        return listening.status().withContext("csched_workerd");
    }
    listenFd_ = *listening;
    auto bound = boundTcpPort(listenFd_);
    if (!bound.ok()) {
        ::close(listenFd_);
        listenFd_ = -1;
        pool_.reset();
        return bound.status().withContext("csched_workerd");
    }
    boundPort_ = *bound;

    if (!options_.portFile.empty()) {
        const Status wrote = writeFileAtomic(
            options_.portFile, std::to_string(boundPort_) + "\n");
        if (!wrote.ok()) {
            ::close(listenFd_);
            listenFd_ = -1;
            pool_.reset();
            return wrote.withContext("csched_workerd --port-file");
        }
    }

    jobs_ = std::make_unique<ThreadPool>(capacity_);
    started_ = true;
    if (options_.verbose)
        std::fprintf(stderr,
                     "[csched_workerd] listening on %s:%u (%d "
                     "workers)\n",
                     options_.host.c_str(), boundPort_, capacity_);
    return Status();
}

int
WorkerdServer::run()
{
    CSCHED_ASSERT(started_, "WorkerdServer::run() before start()");
    readers_.acceptUntil(
        listenFd_, [this] { return drainingNow(); },
        [this](int fd) -> std::function<void()> {
            // Result frames stream back-to-back on this fd; without
            // NODELAY each one stalls on Nagle + delayed ACK (~40 ms).
            setTcpNoDelay(fd);
            setSendTimeout(fd, options_.sendTimeoutMs);
            counters_->connections.fetch_add(1);
            auto connection = std::make_shared<Connection>(fd);
            return [this, connection] { readerMain(connection); };
        });
    return drainAndExit();
}

void
WorkerdServer::stop()
{
    stop_.store(true);
}

bool
WorkerdServer::drainingNow() const
{
    return stop_.load() || drainRequested();
}

void
WorkerdServer::hitCrashPoint()
{
    // One deterministic hit per dispatched job, counters shared
    // daemon-wide: `workerd.crash=fail:nth=1` kills the daemon on its
    // first job.  SIGKILL, because the failure being modelled is a
    // *crash* -- no drain, no goodbye frames, leases heal it.
    std::lock_guard<std::mutex> lock(crashMutex_);
    try {
        crashScope_->hit("workerd.crash");
    } catch (const StatusError &) {
        if (options_.verbose)
            std::fprintf(stderr, "[csched_workerd] workerd.crash "
                                 "fired; dying by SIGKILL\n");
        ::raise(SIGKILL);
    }
}

void
WorkerdServer::jobMain(const std::shared_ptr<Connection> &connection,
                       uint64_t id, const WorkerJobFrame &frame)
{
    hitCrashPoint();

    // During a drain nothing runs or is sent: connections are being
    // torn down, and the client's lease layer reassigns the job anyway.
    bool sent = false;
    if (!drainingNow()) {
        const BaselineMemo memo = frame.baselineMemo();
        counters_->jobsRun.fetch_add(1);
        const JobResult result = pool_->run(
            frame.spec, frame.policy(), memo.empty() ? nullptr : &memo);
        sent = !drainingNow() &&
               connection->send(encodeDistResult(id, result)).ok();
    }
    if (sent)
        counters_->resultsSent.fetch_add(1);
    else
        counters_->resultsDropped.fetch_add(1);
}

void
WorkerdServer::readerMain(std::shared_ptr<Connection> connection)
{
    // Handshake: the first frame must be a hello; everything else --
    // silence, garbage, a stray HTTP request -- costs the peer its
    // connection and nothing more.
    bool welcomed = false;
    {
        const FrameResult frame = readFrame(
            connection->fd, kHandshakeTimeoutMs, options_.maxFrameBytes);
        if (frame.ok()) {
            auto decoded = decodeDistMessage(frame.payload);
            if (decoded.ok() &&
                decoded->kind == DistMessage::Kind::Hello &&
                connection->send(encodeDistWelcome(capacity_)).ok())
                welcomed = true;
        }
        if (!welcomed)
            counters_->handshakeFailures.fetch_add(1);
    }

    while (welcomed) {
        const FrameResult frame = readFrame(
            connection->fd, kReadTickMs, options_.maxFrameBytes);
        if (frame.kind == FrameResult::Kind::Eof)
            break;
        if (frame.kind == FrameResult::Kind::Timeout) {
            if (drainingNow())
                break;
            continue;  // idle tick
        }
        if (frame.kind == FrameResult::Kind::Oversized) {
            // The stream is no longer framed (the oversized payload
            // was not consumed); the connection is unusable.
            counters_->oversizedFrames.fetch_add(1);
            break;
        }
        if (frame.kind == FrameResult::Kind::Malformed) {
            counters_->malformedFrames.fetch_add(1);
            break;
        }

        auto decoded = decodeDistMessage(frame.payload);
        if (!decoded.ok()) {
            // Framing intact but the peer speaks something else; a
            // broken client would only keep garbling, so drop it.
            counters_->invalidMessages.fetch_add(1);
            break;
        }
        if (decoded->kind == DistMessage::Kind::Ping) {
            counters_->pings.fetch_add(1);
            if (!connection->send(encodeDistPong(decoded->seq)).ok())
                break;
            continue;
        }
        if (decoded->kind == DistMessage::Kind::Job) {
            jobs_->submit([this, connection, id = decoded->id,
                           job = std::move(*decoded->job)] {
                jobMain(connection, id, job);
            });
            continue;
        }
        // A client has no business sending welcome/result/pong.
        counters_->invalidMessages.fetch_add(1);
        break;
    }
}

int
WorkerdServer::drainAndExit()
{
    const int signum = interruptSignal();
    if (options_.verbose)
        std::fprintf(stderr, "[csched_workerd] draining (%s)\n",
                     signum != 0 ? "signal" : "stop");

    // 1. No new connections or admissions.
    stop_.store(true);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // 2. Drop every connection now.  Unlike the serve daemon there is
    //    no backlog to answer: the client's lease layer treats the
    //    disconnect as a host loss and reassigns, which is faster and
    //    simpler than finishing in-flight replies during a shutdown.
    readers_.shutdownLive(SHUT_RDWR);

    // 3. Readers exit promptly on the shutdown (EOF or their next
    //    idle tick).  They must be joined *before* the job pool so no
    //    reader can submit a job to a pool being destroyed.
    readers_.joinAll();

    // 4. In-flight jobs unwind at their next cooperative checkpoint;
    //    hung workers are killed by the per-dispatch watchdog; queued
    //    jobs see the drain and drop their results.  (No escalation
    //    when idle: an in-process server must not poison its host
    //    process's cancellation root for nothing.)  Destroying the
    //    pool joins its threads once the queue is empty.
    if (!jobs_->waitFor(std::chrono::milliseconds(0)))
        escalateInterrupt();
    jobs_.reset();

    // 5. Reap the worker processes.
    pool_.reset();
    finished_ = true;
    const int code = signum != 0 ? interruptExitCode(signum) : 0;
    if (options_.verbose)
        std::fprintf(stderr, "[csched_workerd] drained; exit %d\n",
                     code);
    return code;
}

WorkerdStats
WorkerdServer::stats() const
{
    WorkerdStats out;
    CSCHED_WORKERD_COUNTERS(CSCHED_COUNTER_LOAD)
    return out;
}

} // namespace csched
