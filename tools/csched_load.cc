/**
 * @file
 * Load generator for csched_serve: drives the daemon with many
 * concurrent synchronous clients and *proves* the exactly-one-reply
 * contract -- every request it writes is accounted for as exactly one
 * structured response (a result, `overloaded`, a deadline expiry, or
 * `interrupted` during a drain), and any stray or missing reply is a
 * counted defect that fails the run.
 *
 *   csched_load --socket PATH [options]
 *   csched_load --endpoint HOST:PORT [options]
 *     --socket PATH         drive a csched_serve daemon over its
 *                           UNIX-domain socket (serve protocol)
 *     --endpoint HOST:PORT  drive a csched_workerd daemon over TCP
 *                           (csched-dist-v1 protocol: hello/welcome
 *                           handshake, then one job frame per request
 *                           and exactly one result frame back)
 *     --clients N           concurrent client connections (default 8)
 *     --requests N          requests per client (default 10)
 *     --deadline-ms N       per-request deadline sent to the server
 *                           (default 0 = server default)
 *     --reply-timeout-ms N  client-side budget to wait for one reply
 *                           (default 30000)
 *     --conn-retries N      reconnect budget for connections closed
 *                           before their first reply -- the
 *                           serve.accept fault closes fresh
 *                           connections unread, so resending there
 *                           cannot duplicate work (default 3)
 *     --workloads CSV       workload mix (default "vvmul,fir")
 *     --machines CSV        machine mix (default "vliw2")
 *     --algorithms CSV      algorithm mix (default "uas,convergent")
 *     --speedup             request the one-cluster normalisation too
 *     --json FILE           write the csched-load-report-v1 ("-" =
 *                           stdout)
 *     --version             print build provenance JSON and exit
 *
 * Each client is deliberately synchronous (one request in flight per
 * connection): after a drain begins, the first `interrupted` reply
 * tells the client to stop sending and close, which is the handshake
 * the daemon's graceful drain relies on.  The (workload, machine,
 * algorithm) of request r from client c is a pure function of (c, r),
 * so the request mix is reproducible.
 *
 * Exit code: 0 when zero replies were lost and zero duplicated; 1
 * otherwise (or when the report cannot be written).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "dist/protocol.hh"
#include "serve/protocol.hh"
#include "support/atomic_file.hh"
#include "support/json.hh"
#include "support/socket.hh"
#include "support/stats.hh"
#include "support/str.hh"
#include "support/subprocess.hh"
#include "tool_version.hh"

namespace {

using namespace csched;
using Clock = std::chrono::steady_clock;

struct LoadConfig
{
    std::string socketPath;
    /** TCP "host:port" of a csched_workerd; selects the dist mode. */
    std::string endpoint;
    int clients = 8;
    int requests = 10;
    int deadlineMs = 0;
    int replyTimeoutMs = 30000;
    int connectTimeoutMs = 5000;
    int connRetries = 3;
    std::vector<std::string> workloads = {"vvmul", "fir"};
    std::vector<std::string> machines = {"vliw2"};
    std::vector<std::string> algorithms = {"uas", "convergent"};
    bool speedup = false;
    std::string jsonFile;

    bool dist() const { return !endpoint.empty(); }
    uint32_t maxFrameBytes() const
    {
        return dist() ? kDistMaxFrameBytes : kServeMaxFrameBytes;
    }
};

/** Per-client outcome ledger, merged after the join. */
struct Tally
{
    uint64_t sent = 0;     ///< unique requests written at least once
    uint64_t replies = 0;  ///< requests that got exactly one response
    uint64_t lost = 0;     ///< requests with no response at all
    uint64_t duplicates = 0;  ///< stray frames beyond the one reply
    uint64_t unsent = 0;   ///< skipped after an `interrupted` reply
    uint64_t connRetries = 0;
    uint64_t connectFailures = 0;
    uint64_t cached = 0;
    uint64_t coalesced = 0;
    std::map<std::string, uint64_t> statusCounts;
    double latencySumMs = 0.0;
    double latencyMaxMs = 0.0;
    double latencyMinMs = 0.0;
    /// Every per-reply latency, kept raw so the merged report can take
    /// exact nearest-rank percentiles instead of approximations.
    std::vector<double> latencySamplesMs;
    bool sawInterrupted = false;

    void
    merge(const Tally &other)
    {
        sent += other.sent;
        replies += other.replies;
        lost += other.lost;
        duplicates += other.duplicates;
        unsent += other.unsent;
        connRetries += other.connRetries;
        connectFailures += other.connectFailures;
        cached += other.cached;
        coalesced += other.coalesced;
        for (const auto &entry : other.statusCounts)
            statusCounts[entry.first] += entry.second;
        latencySumMs += other.latencySumMs;
        latencySamplesMs.insert(latencySamplesMs.end(),
                                other.latencySamplesMs.begin(),
                                other.latencySamplesMs.end());
        latencyMaxMs = std::max(latencyMaxMs, other.latencyMaxMs);
        if (other.replies > 0)
            latencyMinMs = latencyMinMs == 0.0
                               ? other.latencyMinMs
                               : std::min(latencyMinMs,
                                          other.latencyMinMs);
        sawInterrupted = sawInterrupted || other.sawInterrupted;
    }
};

[[noreturn]] void
usage(const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::cerr << argv0 << ": " << why << "\n";
    std::cerr << "usage: " << argv0
              << " --socket PATH | --endpoint HOST:PORT\n"
              << "  [--clients N] [--requests N]\n"
              << "  [--deadline-ms N] [--reply-timeout-ms N]"
              << " [--conn-retries N]\n"
              << "  [--workloads CSV] [--machines CSV]"
              << " [--algorithms CSV] [--speedup]\n"
              << "  [--json FILE] [--version]\n";
    std::exit(2);
}

/** The deterministic request of slot (client, index). */
ServeRequest
requestAt(const LoadConfig &config, int client, int index)
{
    ServeRequest request;
    request.id = static_cast<uint64_t>(client) * 1000000u +
                 static_cast<uint64_t>(index);
    const int slot = client + index;
    request.workload =
        config.workloads[slot % config.workloads.size()];
    request.machine =
        config.machines[(client + index / 3) % config.machines.size()];
    request.algorithm =
        config.algorithms[index % config.algorithms.size()];
    request.deadlineMs = config.deadlineMs;
    request.computeSpeedup = config.speedup;
    return request;
}

/**
 * The wire form of one request: a serve frame, or -- in dist mode --
 * a csched-dist-v1 job frame carrying the same (workload, machine,
 * algorithm) cell.  Algorithm specs are validated in main(), so the
 * parse here cannot fail.
 */
std::string
encodeRequestPayload(const LoadConfig &config,
                     const ServeRequest &request)
{
    if (!config.dist())
        return encodeServeRequest(request);
    JobSpec spec;
    spec.workload = request.workload;
    spec.machine = request.machine;
    spec.algorithm = *parseAlgorithmSpec(request.algorithm);
    spec.computeSpeedup = request.computeSpeedup;
    JobPolicy policy;
    policy.deadlineMs = request.deadlineMs;
    return encodeDistJob(request.id, spec, policy, /*retries=*/0,
                         /*baselines=*/nullptr);
}

/** Protocol-neutral view of one reply frame for the ledger. */
struct ReplyView
{
    bool decodable = false;
    uint64_t id = 0;
    std::string status;
    bool cached = false;
    bool coalesced = false;
};

ReplyView
decodeReply(const LoadConfig &config, const std::string &payload)
{
    ReplyView view;
    if (config.dist()) {
        auto decoded = decodeDistMessage(payload);
        if (!decoded.ok())
            return view;
        view.decodable = true;
        if (decoded->kind != DistMessage::Kind::Result) {
            // Unsolicited non-result frame: an id that cannot match
            // routes it into the duplicate-frame defect count.
            view.id = ~static_cast<uint64_t>(0);
            return view;
        }
        view.id = decoded->id;
        view.status = jobOutcomeName(decoded->result->outcome);
        return view;
    }
    auto response = decodeServeResponse(payload);
    if (!response.ok())
        return view;
    view.decodable = true;
    view.id = response->id;
    view.status = response->status;
    view.cached = response->cached;
    view.coalesced = response->coalesced;
    return view;
}

/**
 * One synchronous client: connect, then write request / read reply in
 * lockstep until the budget is spent or a drain is observed.
 */
void
clientMain(const LoadConfig &config, int client, Tally *tally)
{
    int fd = -1;
    auto reconnect = [&]() -> bool {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        if (config.dist()) {
            std::string host;
            uint16_t port = 0;
            if (!parseHostPort(config.endpoint, &host, &port).ok())
                return false;
            auto connected =
                connectTcp(host, port, config.connectTimeoutMs);
            if (!connected.ok())
                return false;
            // The dist protocol admits jobs only after the
            // hello/welcome handshake.
            bool welcomed = false;
            if (writeFrame(*connected, encodeDistHello()).ok()) {
                const FrameResult frame =
                    readFrame(*connected, config.connectTimeoutMs,
                              config.maxFrameBytes());
                if (frame.ok()) {
                    auto decoded = decodeDistMessage(frame.payload);
                    welcomed =
                        decoded.ok() &&
                        decoded->kind == DistMessage::Kind::Welcome;
                }
            }
            if (!welcomed) {
                ::close(*connected);
                return false;
            }
            fd = *connected;
            return true;
        }
        auto connected =
            connectUnix(config.socketPath, config.connectTimeoutMs);
        if (!connected.ok())
            return false;
        fd = *connected;
        return true;
    };
    if (!reconnect()) {
        ++tally->connectFailures;
        tally->unsent += static_cast<uint64_t>(config.requests);
        return;
    }

    uint64_t replies_on_connection = 0;
    for (int index = 0; index < config.requests; ++index) {
        if (tally->sawInterrupted) {
            // The daemon is draining; a well-behaved client stops.
            tally->unsent +=
                static_cast<uint64_t>(config.requests - index);
            break;
        }
        const ServeRequest request = requestAt(config, client, index);
        const std::string payload =
            encodeRequestPayload(config, request);

        bool counted_sent = false;
        bool answered = false;
        for (int attempt = 0; attempt <= config.connRetries;
             ++attempt) {
            // Resending is only safe when the old connection cannot
            // deliver a reply anymore and never did: a failed write,
            // or a connection that died (FIN or RST) before its
            // *first* reply -- the serve.accept fault closes unread
            // connections, which arrives as an RST when our frame
            // was still buffered server-side.  Everything else -- a
            // timeout on a live connection, a mid-conversation death
            // -- may already have a reply in flight or owed, and a
            // resend could duplicate it.
            bool retryable = false;
            if (fd < 0) {
                if (!reconnect()) {
                    ++tally->connectFailures;
                    break;  // daemon gone; the request is unanswered
                }
                replies_on_connection = 0;
            }
            const Clock::time_point wrote = Clock::now();
            if (!writeFrame(fd, payload).ok()) {
                ::close(fd);
                fd = -1;
                ++tally->connRetries;
                continue;
            }
            if (!counted_sent) {
                ++tally->sent;
                counted_sent = true;
            }

            // Read until *our* reply; any other frame on a
            // synchronous connection is a duplicate-reply defect.
            for (;;) {
                FrameResult frame =
                    readFrame(fd, config.replyTimeoutMs,
                              config.maxFrameBytes());
                if (frame.kind == FrameResult::Kind::Payload) {
                    const ReplyView reply =
                        decodeReply(config, frame.payload);
                    if (!reply.decodable) {
                        ++tally->statusCounts["undecodable"];
                        ++tally->replies;
                        answered = true;
                        break;
                    }
                    if (reply.id != request.id) {
                        ++tally->duplicates;
                        continue;
                    }
                    ++tally->replies;
                    ++replies_on_connection;
                    answered = true;
                    ++tally->statusCounts[reply.status];
                    if (reply.cached)
                        ++tally->cached;
                    if (reply.coalesced)
                        ++tally->coalesced;
                    if (reply.status == "interrupted")
                        tally->sawInterrupted = true;
                    const double latency =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - wrote)
                            .count();
                    tally->latencySumMs += latency;
                    tally->latencySamplesMs.push_back(latency);
                    tally->latencyMaxMs =
                        std::max(tally->latencyMaxMs, latency);
                    tally->latencyMinMs =
                        tally->latencyMinMs == 0.0
                            ? latency
                            : std::min(tally->latencyMinMs, latency);
                    break;
                }
                if ((frame.kind == FrameResult::Kind::Eof ||
                     frame.kind == FrameResult::Kind::Malformed) &&
                    replies_on_connection == 0) {
                    // Dead before its first reply -- a clean FIN, or
                    // the RST a server close sends when our frame was
                    // still unread in its receive buffer (the
                    // serve.accept refusal path).  Either way no
                    // request of ours was answered on this connection
                    // and, closed, it can never deliver a late reply;
                    // resending on a fresh connection cannot
                    // duplicate one.
                    ::close(fd);
                    fd = -1;
                    ++tally->connRetries;
                    retryable = true;
                    break;
                }
                // EOF mid-conversation or a timeout/malformed frame:
                // this request has no reply, and resending would risk
                // a duplicate.  Count the loss and move on.
                if (fd >= 0) {
                    ::close(fd);
                    fd = -1;
                }
                break;
            }
            if (answered || !retryable)
                break;
        }
        if (counted_sent && !answered)
            ++tally->lost;
        if (!counted_sent) {
            tally->unsent +=
                static_cast<uint64_t>(config.requests - index);
            break;  // could not even deliver the frame; stop
        }
    }

    // Stray-frame sweep: a synchronous client that is done should see
    // silence; anything readable here is a duplicated reply.
    if (fd >= 0) {
        for (;;) {
            FrameResult frame =
                readFrame(fd, 50, config.maxFrameBytes());
            if (frame.kind != FrameResult::Kind::Payload)
                break;
            ++tally->duplicates;
        }
        ::close(fd);
    }
}

std::string
loadReport(const LoadConfig &config, const Tally &total,
           double seconds)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("schema").value("csched-load-report-v1");
        w.key("transport").value(config.dist() ? "tcp-dist"
                                               : "unix-serve");
        w.key("socket").value(config.dist() ? config.endpoint
                                            : config.socketPath);
        w.key("config").beginObject();
        w.key("clients").value(config.clients);
        w.key("requestsPerClient").value(config.requests);
        w.key("deadlineMs").value(config.deadlineMs);
        w.key("workloads").beginArray();
        for (const auto &name : config.workloads)
            w.value(name);
        w.endArray();
        w.key("machines").beginArray();
        for (const auto &name : config.machines)
            w.value(name);
        w.endArray();
        w.key("algorithms").beginArray();
        for (const auto &name : config.algorithms)
            w.value(name);
        w.endArray();
        w.key("computeSpeedup").value(config.speedup);
        w.endObject();
        w.key("totals").beginObject();
        w.key("sent").value(total.sent);
        w.key("replies").value(total.replies);
        w.key("lost").value(total.lost);
        w.key("duplicates").value(total.duplicates);
        w.key("unsent").value(total.unsent);
        w.key("connRetries").value(total.connRetries);
        w.key("connectFailures").value(total.connectFailures);
        w.key("cached").value(total.cached);
        w.key("coalesced").value(total.coalesced);
        w.endObject();
        w.key("statusCounts").beginObject();
        for (const auto &entry : total.statusCounts)
            w.key(entry.first).value(entry.second);
        w.endObject();
        w.key("latencyMs").beginObject();
        w.key("min").value(total.latencyMinMs);
        w.key("mean").value(total.replies > 0
                                ? total.latencySumMs /
                                      static_cast<double>(
                                          total.replies)
                                : 0.0);
        // Nearest-rank percentiles over the merged per-reply samples:
        // exact observed values, deterministic for a fixed ledger.
        w.key("p50").value(percentile(total.latencySamplesMs, 50.0));
        w.key("p95").value(percentile(total.latencySamplesMs, 95.0));
        w.key("p99").value(percentile(total.latencySamplesMs, 99.0));
        w.key("max").value(total.latencyMaxMs);
        w.endObject();
        w.key("sawDrain").value(total.sawInterrupted);
        w.key("seconds").value(seconds);
        w.endObject();
    }
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    LoadConfig config;
    for (int k = 1; k < argc; ++k) {
        const std::string arg = argv[k];
        auto next = [&]() -> std::string {
            if (k + 1 >= argc)
                usage(argv[0], arg + " needs a value");
            return argv[++k];
        };
        auto nextInt = [&]() -> int {
            const std::string text = next();
            const std::optional<int> value = parseNonNegativeInt(text);
            if (!value)
                usage(argv[0], arg + " expects a non-negative integer, "
                                     "got '" + text + "'");
            return *value;
        };
        if (arg == "--version") {
            return printToolVersion("csched_load");
        } else if (arg == "--socket") {
            config.socketPath = next();
        } else if (arg == "--endpoint") {
            config.endpoint = next();
        } else if (arg == "--clients") {
            config.clients = nextInt();
        } else if (arg == "--requests") {
            config.requests = nextInt();
        } else if (arg == "--deadline-ms") {
            config.deadlineMs = nextInt();
        } else if (arg == "--reply-timeout-ms") {
            config.replyTimeoutMs = nextInt();
        } else if (arg == "--conn-retries") {
            config.connRetries = nextInt();
        } else if (arg == "--workloads") {
            config.workloads = split(next(), ',');
        } else if (arg == "--machines") {
            config.machines = split(next(), ',');
        } else if (arg == "--algorithms") {
            config.algorithms = split(next(), ',');
        } else if (arg == "--speedup") {
            config.speedup = true;
        } else if (arg == "--json") {
            config.jsonFile = next();
        } else {
            usage(argv[0], "unknown option '" + arg + "'");
        }
    }
    if (config.socketPath.empty() == config.endpoint.empty())
        usage(argv[0],
              "exactly one of --socket or --endpoint is required");
    if (config.dist()) {
        std::string host;
        uint16_t port = 0;
        const Status parsed =
            parseHostPort(config.endpoint, &host, &port);
        if (!parsed.ok())
            usage(argv[0], "--endpoint: " + parsed.message());
        for (const std::string &algorithm : config.algorithms) {
            std::string why;
            if (!parseAlgorithmSpec(algorithm, &why).has_value())
                usage(argv[0], "--algorithms: " + why);
        }
    }
    if (config.clients < 1 || config.requests < 1)
        usage(argv[0], "--clients and --requests must be >= 1");
    if (config.workloads.empty() || config.machines.empty() ||
        config.algorithms.empty())
        usage(argv[0], "workload/machine/algorithm mixes must be "
                       "non-empty");

    const Clock::time_point started = Clock::now();
    std::vector<Tally> tallies(
        static_cast<std::size_t>(config.clients));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(config.clients));
    for (int client = 0; client < config.clients; ++client)
        threads.emplace_back(clientMain, std::cref(config), client,
                             &tallies[static_cast<std::size_t>(
                                 client)]);
    for (std::thread &thread : threads)
        thread.join();

    Tally total;
    for (const Tally &tally : tallies)
        total.merge(tally);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - started)
            .count();

    const std::string report = loadReport(config, total, seconds);
    if (config.jsonFile == "-") {
        std::cout << report << "\n";
    } else if (!config.jsonFile.empty()) {
        const Status written =
            writeFileAtomic(config.jsonFile, report);
        if (!written.ok()) {
            std::cerr << argv[0] << ": " << written.toString()
                      << "\n";
            return 1;
        }
    }

    std::cerr << "csched_load: sent " << total.sent << ", replies "
              << total.replies << ", lost " << total.lost
              << ", duplicates " << total.duplicates << ", unsent "
              << total.unsent << ", drain "
              << (total.sawInterrupted ? "seen" : "not seen") << "\n";
    return total.lost == 0 && total.duplicates == 0 ? 0 : 1;
}
