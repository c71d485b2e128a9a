/**
 * @file
 * Remote worker daemon for distributed grid execution (see
 * dist/workerd.hh for the architecture and DESIGN.md section 13 for
 * the distributed failure-mode matrix).
 *
 *   csched_workerd [options]
 *     --host ADDR          numeric address to bind (default 127.0.0.1)
 *     --port N             TCP port; 0 binds an ephemeral port
 *                          (default 0)
 *     --port-file PATH     write the bound port here (atomically, one
 *                          decimal line) once listening -- how shell
 *                          harnesses discover an ephemeral port
 *     --workers N          worker processes to pre-fork (default:
 *                          hardware concurrency)
 *     --mem-limit-mb N     RLIMIT_AS per worker; 0 = none
 *     --send-timeout-ms N  per-reply write budget against stalled
 *                          clients (default 5000)
 *     --max-frame-bytes N  refuse frames longer than this
 *                          (default 8 MiB)
 *     --verbose            lifecycle lines on stderr
 *     --version            print build provenance JSON and exit
 *
 * Signals: the first SIGINT/SIGTERM/SIGHUP drains -- stop admissions,
 * close every connection (clients reassign the lost leases), give
 * in-flight jobs a short cooperative grace -- and exits 128+signum.
 * Exit codes: 0 after stop(), 1 for runtime failures (bind), 2 for
 * usage errors.  (A hidden --inject RULES option arms the fault
 * harness, including the deterministic workerd.crash point that dies
 * by SIGKILL -- the reproducible daemon crash used by tests and CI.)
 */

#include <csignal>
#include <iostream>
#include <string>

#include <sys/prctl.h>

#include "dist/workerd.hh"
#include "runner/shutdown.hh"
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
    std::cerr << "usage: " << argv0
              << " [--host ADDR] [--port N] [--port-file PATH]\n"
              << "  [--workers N] [--mem-limit-mb N]"
              << " [--send-timeout-ms N]\n"
              << "  [--max-frame-bytes N] [--verbose] [--version]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    WorkerdOptions options;
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
            return printToolVersion("csched_workerd");
        } else if (arg == "--host") {
            options.host = next();
        } else if (arg == "--port") {
            const int port = nextInt();
            if (port > 65535)
                usage(argv[0], "--port must be <= 65535");
            options.port = static_cast<uint16_t>(port);
        } else if (arg == "--port-file") {
            options.portFile = next();
        } else if (arg == "--workers") {
            options.workers = nextInt();
        } else if (arg == "--mem-limit-mb") {
            options.memLimitMb = nextInt();
        } else if (arg == "--send-timeout-ms") {
            options.sendTimeoutMs = nextInt();
        } else if (arg == "--max-frame-bytes") {
            options.maxFrameBytes = static_cast<uint32_t>(nextInt());
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
    if (!fault_plan.empty())
        options.faults = &fault_plan;

    // A workerd orphaned by its launching harness must not linger and
    // hold the port (CI forks fleets of these).
    prctl(PR_SET_PDEATHSIG, SIGKILL);

    // Serve-style drain: the first signal stops admissions and closes
    // connections; lease reassignment on the clients does the healing.
    installServeSignalHandlers();

    WorkerdServer server(std::move(options));
    const Status started = server.start();
    if (!started.ok()) {
        std::cerr << argv[0] << ": " << started.toString() << "\n";
        return 1;
    }
    return server.run();
}
