#include "dist/remote_pool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "runner/shutdown.hh"
#include "support/backoff.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"
#include "support/socket.hh"
#include "support/str.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

using Clock = std::chrono::steady_clock;

/** Idle tick for waits that must notice drain/steal/liveness. */
constexpr int kTickMs = 50;

/** When a host whose reconnect @p attempt just failed may try again. */
Clock::time_point
nextReconnectAt(const DistOptions &options, const std::string &endpoint,
                int attempt, Clock::time_point now)
{
    return now + std::chrono::milliseconds(jitteredBackoffMs(
                     "dist.reconnect/" + endpoint,
                     static_cast<uint64_t>(attempt),
                     options.reconnectBaseMs, options.reconnectCapMs,
                     attempt - 1));
}

} // namespace

// ---------------------------------------------------------------------
// Options.
// ---------------------------------------------------------------------

Status
DistOptions::applyOverrides(DistOptions *options,
                            const std::string &text)
{
    struct Knob
    {
        const char *name;
        int *field;
    };
    const Knob knobs[] = {
        {"connect-timeout-ms", &options->connectTimeoutMs},
        {"heartbeat-interval-ms", &options->heartbeatIntervalMs},
        {"liveness-timeout-ms", &options->livenessTimeoutMs},
        {"reconnect-base-ms", &options->reconnectBaseMs},
        {"reconnect-cap-ms", &options->reconnectCapMs},
        {"crash-loop-threshold", &options->crashLoopThreshold},
        {"quarantine-cooldown-ms", &options->quarantineCooldownMs},
        {"partition-ms", &options->partitionMs},
        {"steal-after-ms", &options->stealAfterMs},
        {"dispatch-attempts", &options->dispatchAttempts},
        {"dispatch-wait-ms", &options->dispatchWaitMs},
        {"send-timeout-ms", &options->sendTimeoutMs},
    };

    for (const std::string &piece : split(text, ',')) {
        const std::string entry = trim(piece);
        if (entry.empty())
            continue;
        const auto eq = entry.find('=');
        if (eq == std::string::npos)
            return Status::invalidSpec("dist option '" + entry +
                                       "' is not key=value");
        const std::string key = trim(entry.substr(0, eq));
        const std::optional<int> value =
            parseNonNegativeInt(trim(entry.substr(eq + 1)));
        if (!value)
            return Status::invalidSpec("dist option '" + key +
                                       "': value must be a "
                                       "non-negative integer");
        bool known = false;
        for (const Knob &knob : knobs) {
            if (key == knob.name) {
                *knob.field = *value;
                known = true;
                break;
            }
        }
        if (!known)
            return Status::invalidSpec("unknown dist option '" + key +
                                       "'");
    }
    return Status();
}

// ---------------------------------------------------------------------
// Internal state.
// ---------------------------------------------------------------------

/** One endpoint of the fleet and its connection state machine. */
struct RemoteWorkerPool::Host
{
    enum class State {
        Disconnected,  ///< no connection; (re)connect scheduled
        Connecting,    ///< TCP up, hello/welcome handshake pending
        Connected,     ///< welcomed; accepting leases
    };

    Host(std::string spelling, int slot, const DistOptions &options)
        : endpoint(std::move(spelling)), index(slot),
          quarantine("dist.quarantine/" + endpoint,
                     options.crashLoopThreshold,
                     options.quarantineCooldownMs)
    {
    }

    std::string endpoint;  ///< the "host:port" spelling for messages
    std::string addr;
    uint16_t port = 0;
    int index = 0;
    /** Consecutive connection losses trip a quarantine window. */
    CrashLoopBreaker quarantine;

    State state = State::Disconnected;
    int fd = -1;  ///< owned (closed) by the reader thread
    std::thread reader;  ///< of the current connection; see controllerMain
    /** Bumped on every loss, so stale readers cannot double-kill. */
    uint64_t generation = 0;
    int capacity = 1;
    int active = 0;  ///< outstanding dispatches leased here
    int reconnectAttempt = 0;
    uint64_t pingSeq = 0;
    Clock::time_point lastHeard{};
    Clock::time_point nextPingAt{};
    Clock::time_point nextReconnectAt = Clock::time_point::min();
    /** Simulated partition: no reconnect attempts before this. */
    Clock::time_point noReconnectBefore = Clock::time_point::min();
};

/** One job's claim on the fleet (lives on execute()'s stack). */
struct RemoteWorkerPool::Lease
{
    std::condition_variable cv;  ///< waits on the pool mutex
    bool done = false;
    bool lost = false;  ///< every outstanding dispatch disappeared
    JobResult result;
    /** (dispatch id, host index) pairs still in flight. */
    std::vector<std::pair<uint64_t, int>> outstanding;
    Clock::time_point dispatchedAt{};

    // A steal must rebuild the dispatch frame without touching the
    // originating thread, so the lease owns copies of everything the
    // frame needs (the fault plan is grid-lifetime and only borrowed).
    JobSpec spec;
    JobPolicy policy;
    BaselineMemo memo;
};

RemoteWorkerPool::RemoteWorkerPool(DistOptions options)
    : options_(std::move(options))
{
}

RemoteWorkerPool::~RemoteWorkerPool()
{
    shutdown();
}

// ---------------------------------------------------------------------
// Connection management.
// ---------------------------------------------------------------------

Status
RemoteWorkerPool::start()
{
    CSCHED_ASSERT(!started_, "RemoteWorkerPool::start() called twice");
    if (options_.hosts.empty())
        return Status::invalidSpec("no worker hosts given");

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::string &endpoint : options_.hosts) {
            auto host = std::make_shared<Host>(
                endpoint, static_cast<int>(hosts_.size()), options_);
            const Status parsed =
                parseHostPort(endpoint, &host->addr, &host->port);
            if (!parsed.ok())
                return parsed.withContext("--hosts");
            hosts_.push_back(std::move(host));
        }
    }

    // A write to a host that died mid-read must be an EPIPE Status,
    // not a fatal SIGPIPE (same stance as the worker pipes).
    std::signal(SIGPIPE, SIG_IGN);

    // First connection wave: every endpoint gets the full budget (the
    // daemons may still be binding); failures just schedule the
    // background reconnect loop.
    for (const auto &host : hosts_) {
        auto connected =
            connectTcp(host->addr, host->port, options_.connectTimeoutMs);
        std::lock_guard<std::mutex> lock(mutex_);
        if (connected.ok()) {
            setSendTimeout(*connected, options_.sendTimeoutMs);
            host->state = Host::State::Connecting;
            host->fd = *connected;
            host->lastHeard = Clock::now();
            host->reader = std::thread(&RemoteWorkerPool::readerMain,
                                       this, host, *connected,
                                       host->generation);
        } else {
            host->reconnectAttempt = 1;
            host->nextReconnectAt =
                nextReconnectAt(options_, host->endpoint, 1, Clock::now());
        }
    }

    started_ = true;
    controller_ = std::thread(&RemoteWorkerPool::controllerMain, this);

    // The fleet is usable once one host finished its handshake.
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(options_.connectTimeoutMs + 2000);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stateChanged_.wait_until(lock, deadline, [this] {
            for (const auto &host : hosts_)
                if (host->state == Host::State::Connected)
                    return true;
            return false;
        });
        for (const auto &host : hosts_)
            if (host->state == Host::State::Connected)
                return Status();
    }
    shutdown();
    std::string tried;
    for (const std::string &endpoint : options_.hosts) {
        if (!tried.empty())
            tried += ", ";
        tried += endpoint;
    }
    return Status::hostLost("no worker host reachable (tried " +
                            tried + ")");
}

void
RemoteWorkerPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_ || stopping_) {
            stopping_ = true;
            return;
        }
        stopping_ = true;
        for (const auto &host : hosts_)
            if (host->fd >= 0)
                connectionLost(*host, host->generation,
                               "client shutting down");
        stateChanged_.notify_all();
    }
    if (controller_.joinable())
        controller_.join();
    for (const auto &host : hosts_)
        if (host->reader.joinable())
            host->reader.join();
}

/**
 * Declare one connection dead (mutex_ must be held): bump the
 * generation so the stale reader cannot double-kill, wake the reader
 * via shutdown(2), fail the leases parked on the host, and schedule
 * either a reconnect or -- after enough consecutive losses -- a
 * quarantine window.
 */
void
RemoteWorkerPool::connectionLost(Host &host, uint64_t generation,
                                 const char *why, bool partitioned)
{
    if (host.generation != generation)
        return;  // already handled by someone faster
    ++host.generation;
    counters_.hostLosses.fetch_add(1);
    if (host.fd >= 0) {
        ::shutdown(host.fd, SHUT_RDWR);
        host.fd = -1;  // the reader thread owns the close
    }
    if (!stopping_)
        CSCHED_WARN("worker host ", host.endpoint, " lost: ", why);

    failHostLeasesLocked(host);
    host.active = 0;

    const auto now = Clock::now();
    if (partitioned)
        host.noReconnectBefore =
            now + std::chrono::milliseconds(options_.partitionMs);

    host.state = Host::State::Disconnected;
    if (const int cooldown = host.quarantine.failure()) {
        // Crash loop: quarantine for the breaker's cooldown, then
        // re-admit on probation.
        counters_.quarantines.fetch_add(1);
        host.nextReconnectAt =
            now + std::chrono::milliseconds(cooldown);
    } else {
        ++host.reconnectAttempt;
        host.nextReconnectAt = nextReconnectAt(
            options_, host.endpoint, host.reconnectAttempt, now);
    }
    stateChanged_.notify_all();
}

void
RemoteWorkerPool::failHostLeasesLocked(Host &host)
{
    for (auto it = pending_.begin(); it != pending_.end();) {
        Lease *lease = it->second;
        bool on_host = false;
        for (auto entry = lease->outstanding.begin();
             entry != lease->outstanding.end(); ++entry) {
            if (entry->first == it->first &&
                entry->second == host.index) {
                lease->outstanding.erase(entry);
                on_host = true;
                break;
            }
        }
        if (!on_host) {
            ++it;
            continue;
        }
        it = pending_.erase(it);
        if (lease->outstanding.empty() && !lease->done) {
            lease->lost = true;
            counters_.leaseReassignments.fetch_add(1);
            lease->cv.notify_all();
        }
    }
}

void
RemoteWorkerPool::readerMain(std::shared_ptr<Host> host, int fd,
                             uint64_t generation)
{
    // Handshake first: hello out, welcome back.  Until the welcome is
    // seen nothing else writes to this fd, so no lock is needed here.
    bool welcomed = false;
    if (writeFrame(fd, encodeDistHello()).ok()) {
        const FrameResult frame =
            readFrame(fd, options_.connectTimeoutMs,
                      options_.maxFrameBytes);
        if (frame.ok()) {
            auto decoded = decodeDistMessage(frame.payload);
            if (decoded.ok() &&
                decoded->kind == DistMessage::Kind::Welcome) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (host->generation == generation && !stopping_) {
                    host->state = Host::State::Connected;
                    host->capacity = std::max(1, decoded->capacity);
                    host->active = 0;
                    host->lastHeard = Clock::now();
                    host->nextPingAt = Clock::now();
                    host->quarantine.success();
                    host->reconnectAttempt = 0;
                    counters_.reconnects.fetch_add(1);
                    welcomed = true;
                    stateChanged_.notify_all();
                }
            }
        }
    }

    while (welcomed) {
        const FrameResult frame =
            readFrame(fd, kTickMs * 4, options_.maxFrameBytes);
        if (frame.kind == FrameResult::Kind::Timeout) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_ || host->generation != generation)
                break;
            continue;  // idle tick; liveness is the controller's job
        }
        if (!frame.ok())  // EOF, malformed, oversized: channel dead
            break;

        auto decoded = decodeDistMessage(frame.payload);
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ || host->generation != generation)
            break;
        host->lastHeard = Clock::now();
        if (!decoded.ok())  // the peer garbles; drop it below
            break;
        if (decoded->kind == DistMessage::Kind::Pong)
            continue;
        if (decoded->kind != DistMessage::Kind::Result)
            continue;  // nothing else is server-to-client meaningful

        const auto found = pending_.find(decoded->id);
        if (found == pending_.end()) {
            // A steal won the race, or the lease was reassigned away;
            // this result is stale by id and simply dropped.
            counters_.staleResults.fetch_add(1);
            continue;
        }
        Lease *lease = found->second;
        for (const auto &[oid, hidx] : lease->outstanding) {
            pending_.erase(oid);
            Host &h = *hosts_[static_cast<size_t>(hidx)];
            h.active = std::max(0, h.active - 1);
        }
        lease->outstanding.clear();
        lease->done = true;
        lease->result = std::move(*decoded->result);
        lease->cv.notify_all();
        stateChanged_.notify_all();
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!stopping_)
            connectionLost(*host, generation, "connection closed");
    }
    ::close(fd);
}

void
RemoteWorkerPool::controllerMain()
{
    for (;;) {
        std::vector<std::shared_ptr<Host>> to_connect;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stateChanged_.wait_for(lock,
                                   std::chrono::milliseconds(kTickMs));
            if (stopping_)
                return;
            const auto now = Clock::now();
            for (const auto &host : hosts_) {
                switch (host->state) {
                  case Host::State::Connected: {
                    const auto silent =
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            now - host->lastHeard)
                            .count();
                    if (silent > options_.livenessTimeoutMs) {
                        connectionLost(*host, host->generation,
                                       "liveness deadline passed");
                        break;
                    }
                    if (now >= host->nextPingAt) {
                        host->nextPingAt =
                            now + std::chrono::milliseconds(
                                      options_.heartbeatIntervalMs);
                        if (!writeFrame(host->fd,
                                        encodeDistPing(
                                            ++host->pingSeq))
                                 .ok())
                            connectionLost(*host, host->generation,
                                           "heartbeat write failed");
                    }
                    break;
                  }
                  case Host::State::Disconnected:
                    if (now >= host->nextReconnectAt &&
                        now >= host->noReconnectBefore) {
                        host->state = Host::State::Connecting;
                        to_connect.push_back(host);
                    }
                    break;
                  case Host::State::Connecting:
                    break;
                }
            }
            tryStealLocked();
        }

        // TCP connects happen unlocked (they block); each attempt is
        // kept short -- the backoff schedule provides the pacing.
        for (const auto &host : to_connect) {
            // The lost connection's fd was shut down, so its reader is
            // exiting; join it unlocked, as it takes mutex_ on the way.
            if (host->reader.joinable())
                host->reader.join();
            auto connected = connectTcp(
                host->addr, host->port,
                std::min(options_.connectTimeoutMs, 4 * kTickMs));
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) {
                if (connected.ok())
                    ::close(*connected);
                return;
            }
            if (connected.ok()) {
                setSendTimeout(*connected, options_.sendTimeoutMs);
                ++host->generation;
                host->fd = *connected;
                host->lastHeard = Clock::now();
                host->reader =
                    std::thread(&RemoteWorkerPool::readerMain, this,
                                host, *connected, host->generation);
            } else {
                host->state = Host::State::Disconnected;
                ++host->reconnectAttempt;
                host->nextReconnectAt =
                    nextReconnectAt(options_, host->endpoint,
                                    host->reconnectAttempt, Clock::now());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

/**
 * Least-loaded host with spare capacity (the greedy dual of the
 * Murray-Khuller-Chao LP view of heterogeneous dispatch), with a
 * (workload, machine) affinity tie-break so jobs sharing a memoized
 * baseline pack onto the same host (Shafiee-Ghaderi co-location).
 */
RemoteWorkerPool::Host *
RemoteWorkerPool::pickHostLocked(const std::string &affinity_key)
{
    const size_t preferred =
        hosts_.empty()
            ? 0
            : static_cast<size_t>(fnv1aHash(affinity_key) %
                                  hosts_.size());
    Host *best = nullptr;
    int best_score = 0;
    for (const auto &host : hosts_) {
        if (host->state != Host::State::Connected ||
            host->active >= host->capacity)
            continue;
        const int score = (host->active * 1024) / host->capacity;
        const bool better =
            best == nullptr || score < best_score ||
            (score == best_score &&
             static_cast<size_t>(host->index) == preferred);
        if (better) {
            best = host.get();
            best_score = score;
        }
    }
    return best;
}

bool
RemoteWorkerPool::sendOnHostLocked(Host &host,
                                   const std::string &payload)
{
    const Status sent = writeFrame(host.fd, payload);
    if (sent.ok())
        return true;
    connectionLost(host, host.generation,
                   "job dispatch write failed");
    return false;
}

/**
 * Speculative work stealing (mutex_ held): any lease in flight on
 * exactly one host for longer than the steal threshold is duplicated
 * onto an idle host under a fresh dispatch id; the first result wins
 * and the straggler is dropped as stale.
 */
void
RemoteWorkerPool::tryStealLocked()
{
    if (options_.stealAfterMs <= 0)
        return;
    const auto now = Clock::now();
    // pending_ maps several ids to the same lease; visit each once.
    std::vector<Lease *> seen;
    for (const auto &[id, lease] : pending_) {
        (void)id;
        if (lease->done || lease->outstanding.size() != 1)
            continue;
        if (std::find(seen.begin(), seen.end(), lease) != seen.end())
            continue;
        seen.push_back(lease);
        const auto in_flight =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - lease->dispatchedAt)
                .count();
        if (in_flight < options_.stealAfterMs)
            continue;
        const int primary = lease->outstanding.front().second;
        Host *idle = nullptr;
        for (const auto &host : hosts_) {
            if (host->index == primary ||
                host->state != Host::State::Connected ||
                host->active >= host->capacity)
                continue;
            if (idle == nullptr || host->active < idle->active)
                idle = host.get();
        }
        if (idle == nullptr)
            continue;
        const uint64_t id2 = nextDispatchId_++;
        const std::string payload = encodeDistJob(
            id2, lease->spec, lease->policy, lease->policy.retries,
            lease->memo.empty() ? nullptr : &lease->memo);
        if (!sendOnHostLocked(*idle, payload))
            continue;
        pending_[id2] = lease;
        lease->outstanding.emplace_back(id2, idle->index);
        ++idle->active;
        counters_.steals.fetch_add(1);
        counters_.dispatches.fetch_add(1);
    }
}

DistStats
RemoteWorkerPool::stats() const
{
    DistStats out;
    CSCHED_DIST_COUNTERS(CSCHED_COUNTER_LOAD)
    return out;
}

// ---------------------------------------------------------------------
// Remote execution.
// ---------------------------------------------------------------------

namespace {

/**
 * Hit the client-side network fault points for one primary dispatch,
 * in the job's own fault scope, and report what fired.  All three
 * points are hit every time so their per-scope counters advance in
 * lockstep with dispatches (the worker.* pattern one layer down).
 */
struct NetFault
{
    bool drop = false;
    bool partition = false;
};

NetFault
hitNetPoints()
{
    NetFault fault;
    try {
        faultPoint("net.slow");  // a slow rule sleeps inside the hit
    } catch (const StatusError &) {
        // A fail rule on net.slow models a stall worth a drop.
        fault.drop = true;
    }
    try {
        faultPoint("net.drop");
    } catch (const StatusError &) {
        fault.drop = true;
    }
    try {
        faultPoint("net.partition");
    } catch (const StatusError &) {
        fault.partition = true;
    }
    return fault;
}

} // namespace

void
RemoteWorkerPool::execute(const JobSpec &spec, const JobPolicy &policy,
                          const BaselineMemo *baselines,
                          JobResult &result)
{
    const std::string affinity_key =
        spec.workload + "/" + spec.machine;
    auto host_lost = [&result](const char *why) {
        result.outcome = JobOutcome::Failed;
        result.error = ErrorCode::HostLost;
        result.attempts = 1;
        result.diagnostic =
            std::string("every remote host is lost or quarantined; ") +
            why;
    };

    Lease lease;
    lease.spec = spec;
    lease.policy = policy;
    if (baselines != nullptr) {
        const auto it = baselines->find({spec.workload, spec.machine});
        if (it != baselines->end())
            lease.memo[{spec.workload, spec.machine}] = it->second;
    }

    int transport_losses = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // ---- Find a host (bounded wait). -------------------------
        const auto dispatch_deadline =
            Clock::now() +
            std::chrono::milliseconds(options_.dispatchWaitMs);
        Host *host = nullptr;
        while ((host = pickHostLocked(affinity_key)) == nullptr) {
            if (interruptRequested()) {
                markInterrupted(result,
                                "while waiting for a worker host");
                result.attempts = 0;
                return;
            }
            if (stopping_ || Clock::now() >= dispatch_deadline)
                return host_lost(
                    "no healthy host within the dispatch budget");
            stateChanged_.wait_for(lock,
                                   std::chrono::milliseconds(kTickMs));
        }

        // ---- Deterministic network faults. -----------------------
        // Hit without the lock held (a slow rule sleeps), then
        // re-validate the chosen host.
        const uint64_t chosen_generation = host->generation;
        lock.unlock();
        const NetFault net = hitNetPoints();
        lock.lock();
        if (net.drop || net.partition) {
            connectionLost(*host, chosen_generation,
                           net.partition ? "injected net.partition"
                                         : "injected net.drop",
                           net.partition);
            if (++transport_losses > options_.dispatchAttempts)
                return host_lost("dispatch budget exhausted");
            continue;
        }
        if (host->generation != chosen_generation ||
            host->state != Host::State::Connected)
            continue;  // the host changed under us; pick again

        // ---- Dispatch. -------------------------------------------
        const uint64_t id = nextDispatchId_++;
        const std::string payload = encodeDistJob(
            id, spec, policy, policy.retries,
            lease.memo.empty() ? nullptr : &lease.memo);
        if (!sendOnHostLocked(*host, payload)) {
            ++transport_losses;
            continue;
        }
        counters_.dispatches.fetch_add(1);
        pending_[id] = &lease;
        lease.outstanding.emplace_back(id, host->index);
        lease.dispatchedAt = Clock::now();
        ++host->active;

        // ---- Await the first result. -----------------------------
        while (!lease.done && !lease.lost) {
            if (interruptRequested()) {
                // Deregister so the stack-owned lease cannot dangle.
                for (const auto &[oid, hidx] : lease.outstanding) {
                    pending_.erase(oid);
                    auto &h = *hosts_[static_cast<size_t>(hidx)];
                    h.active = std::max(0, h.active - 1);
                }
                lease.outstanding.clear();
                markInterrupted(
                    result, "while the job was leased to a remote "
                            "host");
                result.attempts = 0;
                return;
            }
            lease.cv.wait_for(lock,
                              std::chrono::milliseconds(kTickMs * 2));
        }

        if (lease.done) {
            // A daemon drain never sends results (its disconnect
            // reassigns the lease instead), so an `interrupted` result
            // here is the job's own: reported like any other.
            result = std::move(lease.result);
            return;
        }

        // Lost: the transport failed, not the job.  Reassign with no
        // attempt consumed and no trace in the report.
        lease.lost = false;
        if (++transport_losses > options_.dispatchAttempts)
            return host_lost("dispatch budget exhausted");
    }
}

} // namespace csched
