/**
 * @file
 * Scheduler-as-a-service daemon (see serve/server.hh for the
 * architecture and DESIGN.md section 11 for the failure-mode matrix).
 *
 *   csched_serve --socket PATH [options]
 *     --socket PATH            UNIX-domain socket to listen on
 *                              (required; stale socket files from a
 *                              previous run are replaced)
 *     --workers N              pre-forked worker processes (default 2)
 *     --dispatchers N          dispatcher threads (default 2)
 *     --queue N                admitted requests that may wait for a
 *                              dispatcher (default 64, >= 1); a full
 *                              queue refuses with `overloaded`
 *     --cache N                result-cache entries (default 128;
 *                              0 disables memoization)
 *     --deadline-ms N          default end-to-end deadline for
 *                              requests without one (default 10000;
 *                              0 = none)
 *     --retries N              per-request retry budget (default 1)
 *     --mem-limit-mb N         RLIMIT_AS per worker; 0 = none
 *     --max-frame-bytes N      refuse request frames longer than this
 *                              (default 1 MiB)
 *     --send-timeout-ms N      per-reply write budget against slow
 *                              clients (default 2000)
 *     --drain-deadline-ms N    in-flight grace on SIGINT/SIGTERM/
 *                              SIGHUP before escalating (default 2000)
 *     --crash-loop-threshold N consecutive worker deaths that trip
 *                              the degraded window (default 3)
 *     --degrade-cooldown-ms N  degraded-window length (default 1000)
 *     --no-timings             omit wall-clock fields from replies
 *     --verbose                lifecycle lines on stderr
 *     --version                print build provenance JSON and exit
 *
 * Signals: the first SIGINT/SIGTERM/SIGHUP starts a graceful drain
 * (stop admissions, finish in-flight work, answer the backlog with
 * `interrupted`), a second one kills the process immediately.  Exit
 * codes: 128+signum after a signal-driven drain, 1 for runtime
 * failures (bad socket path), 2 for usage errors.  (A hidden --inject
 * RULES option arms the fault harness, including the serve.accept /
 * serve.admit / serve.reply points.)
 */

#include <iostream>
#include <string>

#include "runner/shutdown.hh"
#include "serve/server.hh"
#include "support/fault_injection.hh"
#include "support/str.hh"
#include "tool_version.hh"

namespace {

using namespace csched;

[[noreturn]] void
usage(const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::cerr << argv0 << ": " << why << "\n";
    std::cerr
        << "usage: " << argv0 << " --socket PATH [--workers N]"
        << " [--dispatchers N] [--queue N]\n"
        << "  [--cache N] [--deadline-ms N] [--retries N]"
        << " [--mem-limit-mb N]\n"
        << "  [--max-frame-bytes N] [--send-timeout-ms N]"
        << " [--drain-deadline-ms N]\n"
        << "  [--crash-loop-threshold N] [--degrade-cooldown-ms N]"
        << " [--no-timings]\n"
        << "  [--verbose] [--version]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    ServeOptions options;
    FaultPlan fault_plan;

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
            return printToolVersion("csched_serve");
        } else if (arg == "--socket") {
            options.socketPath = next();
        } else if (arg == "--workers") {
            options.workers = nextInt();
        } else if (arg == "--dispatchers") {
            options.dispatchers = nextInt();
        } else if (arg == "--queue") {
            options.queueCapacity =
                static_cast<std::size_t>(nextInt());
        } else if (arg == "--cache") {
            options.cacheCapacity =
                static_cast<std::size_t>(nextInt());
        } else if (arg == "--deadline-ms") {
            options.defaultDeadlineMs = nextInt();
        } else if (arg == "--retries") {
            options.retries = nextInt();
        } else if (arg == "--mem-limit-mb") {
            options.memLimitMb = nextInt();
        } else if (arg == "--max-frame-bytes") {
            options.maxFrameBytes =
                static_cast<uint32_t>(nextInt());
        } else if (arg == "--send-timeout-ms") {
            options.sendTimeoutMs = nextInt();
        } else if (arg == "--drain-deadline-ms") {
            options.drainDeadlineMs = nextInt();
        } else if (arg == "--crash-loop-threshold") {
            options.crashLoopThreshold = nextInt();
        } else if (arg == "--degrade-cooldown-ms") {
            options.degradeCooldownMs = nextInt();
        } else if (arg == "--no-timings") {
            options.timings = false;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--inject") {
            std::string why;
            auto parsed = FaultPlan::parse(next(), &why);
            if (!parsed.has_value())
                usage(argv[0], "--inject: " + why);
            fault_plan = std::move(*parsed);
        } else {
            usage(argv[0], "unknown option '" + arg + "'");
        }
    }
    if (options.socketPath.empty())
        usage(argv[0], "--socket is required");
    if (options.workers < 1)
        usage(argv[0], "--workers must be >= 1");
    if (options.dispatchers < 1)
        usage(argv[0], "--dispatchers must be >= 1");
    if (options.queueCapacity < 1)
        usage(argv[0], "--queue must be >= 1");
    if (!fault_plan.empty())
        options.faults = &fault_plan;

    // Serve-style drain: the first signal only stops admissions;
    // cancellation is armed later, at the drain deadline.
    installServeSignalHandlers();

    Server server(std::move(options));
    const Status started = server.start();
    if (!started.ok()) {
        std::cerr << argv[0] << ": " << started.toString() << "\n";
        return 1;
    }
    return server.run();
}
