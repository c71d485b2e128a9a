/**
 * @file
 * Command-line driver: schedule any built-in workload on any machine
 * with any algorithm and inspect the result.
 *
 *   csched_cli [options]
 *     --workload NAME     benchmark to schedule (default tomcatv;
 *                         "list" prints the registry)
 *     --machine SPEC      vliwN | rawN | rawRxC | single (default
 *                         vliw4); malformed specs are rejected
 *     --algorithm SPEC    convergent | uas | pcc | rawcc | single |
 *                         bug, optionally with a pass sequence as in
 *                         "convergent:INITTIME,PLACE,COMM" (default
 *                         convergent)
 *     --json FILE         write the structured run report ("-" =
 *                         stdout)
 *     --jobs N            worker threads (0 = hardware concurrency)
 *     --gantt             print the per-FU timeline
 *     --placements        print one line per instruction
 *     --trace             print the convergence trace
 *     --dot FILE          write the coloured dependence graph (DOT)
 *     --pressure          print register-pressure stats
 *     --speedup           also compute speedup vs one cluster
 *     --deadline-ms N     per-attempt deadline; 0 = none
 *     --retries N         retry a failed/timed-out run up to N times
 *     --isolate           run the job in a forked worker process so a
 *                         crash/hang/OOM becomes a recorded outcome,
 *                         not a process death
 *     --mem-limit-mb N    RLIMIT_AS per isolated worker; 0 = none
 *     --journal FILE      append terminal job outcomes to FILE as they
 *                         complete
 *     --resume            (with --journal) replay journaled outcomes
 *                         instead of re-running those jobs
 *     --hosts CSV         execute jobs on a fleet of csched_workerd
 *                         daemons, "host:port" each; partition-tolerant
 *                         (see dist/remote_pool.hh) and byte-identical
 *                         to an in-process run
 *     --keep-going        exit 0 even when the run (or a grid job)
 *                         failed
 *
 * Every invocation runs its job(s) once, as a grid through
 * runGridAndReport (tools/grid_driver.hh): a single run is a one-cell
 * grid with the grid's job envelope, retries, journal and executor.
 * --gantt, --placements and --pressure read the Schedule, which only
 * an in-process run keeps, so with --isolate, --hosts or --resume they
 * are a usage error.  --trace, --dot and --speedup work everywhere.
 * stdout carries the human-readable lines, or with "--json -" only
 * the report (the lines then go to stderr).
 *
 * Online mode sweeps arrival streams instead of single workloads:
 * streams ride the grid's workload axis and policies its algorithm
 * axis (see online/online_grid.hh), so it shares --json/--jobs/
 * --journal/--resume/--isolate and the execution knobs above:
 *     --online            run a (stream x machine x policy) sweep
 *     --streams CSV       stream specs, e.g.
 *                         stream:poisson:n=12:seed=1:mean-gap=500:
 *                         workloads=fir+vvmul (specs are comma-free)
 *     --machines CSV      machine specs for the sweep
 *     --policies CSV      online policies (default: all five)
 *     --emit-trace FILE   also write the streams' csched-stream-v1
 *                         JSONL traces once the sweep has run (replay
 *                         with stream:trace:file=FILE when sweeping a
 *                         single stream)
 *
 * Failures are structured: a bad spec is a usage error (exit 2), while
 * a run that fails -- checker rejection, deadline, injected fault --
 * prints a diagnostic and exits 1 unless --keep-going.  SIGINT/SIGTERM
 * stop the run gracefully and exit 128+signum; file outputs (--json,
 * --dot) are atomic (tmp + fsync + rename).  (A hidden --inject RULES
 * option arms the deterministic fault-injection harness; see
 * fault_injection.hh.)
 */

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.hh"
#include "grid_driver.hh"
#include "ir/dot_export.hh"
#include "machine/machine_spec.hh"
#include "online/arrival.hh"
#include "online/policy.hh"
#include "tool_version.hh"
#include "sched/register_pressure.hh"
#include "sched/schedule_printer.hh"
#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/str.hh"
#include "workloads/workloads.hh"

using namespace csched;

namespace {

[[noreturn]] void
usage(const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::cerr << argv0 << ": " << why << "\n";
    std::cerr << "usage: " << argv0
              << " [--workload NAME] [--machine vliwN|rawN|rawRxC]"
              << " [--algorithm SPEC]\n"
              << "  [--json FILE] [--jobs N]"
              << " [--gantt] [--placements]\n"
              << "  [--trace] [--dot FILE] [--pressure] [--speedup]\n"
              << "  [--deadline-ms N] [--retries N] [--isolate]"
              << " [--mem-limit-mb N]\n"
              << "  [--journal FILE] [--resume] [--hosts CSV]"
              << " [--keep-going] [--version]\n"
              << "  [--online [--streams CSV] [--machines CSV]"
              << " [--policies CSV] [--emit-trace FILE]]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    std::string workload = "tomcatv";
    std::string machine_spec = "vliw4";
    std::string algorithm_arg = "convergent";
    std::string dot_file;
    GridFlags flags;
    flags.grid.jobs = 1;
    bool online = false;
    std::string streams_csv =
        "stream:poisson:n=12:seed=1:mean-gap=500:workloads=fir+vvmul+"
        "jacobi";
    std::string machines_csv = "vliw4";
    std::string policies_csv = "online-convergent,online-sp,online-list,"
                               "online-uas,online-pcc";
    std::string trace_file;
    bool want_gantt = false;
    bool want_placements = false;
    bool want_trace = false;
    bool want_pressure = false;
    bool want_speedup = false;

    for (size_t k = 0; k < args.size(); ++k) {
        if (parseGridFlag(argv[0], usage, args, k, flags))
            continue;
        const std::string arg = args[k];
        auto next = [&]() -> std::string {
            if (k + 1 >= args.size())
                usage(argv[0], arg + " needs a value");
            return args[++k];
        };
        if (arg == "--version") {
            return printToolVersion("csched_cli");
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--machine") {
            machine_spec = next();
        } else if (arg == "--algorithm") {
            algorithm_arg = next();
        } else if (arg == "--online") {
            online = true;
        } else if (arg == "--streams") {
            streams_csv = next();
        } else if (arg == "--machines") {
            machines_csv = next();
        } else if (arg == "--policies") {
            policies_csv = next();
        } else if (arg == "--emit-trace") {
            trace_file = next();
        } else if (arg == "--dot") {
            dot_file = next();
        } else if (arg == "--gantt") {
            want_gantt = true;
        } else if (arg == "--placements") {
            want_placements = true;
        } else if (arg == "--trace") {
            want_trace = true;
        } else if (arg == "--pressure") {
            want_pressure = true;
        } else if (arg == "--speedup") {
            want_speedup = true;
        } else {
            usage(argv[0], "unknown option '" + arg + "'");
        }
    }

    if (workload == "list") {
        for (const auto &spec : allWorkloads())
            std::cout << spec.name << "  -  " << spec.description
                      << "\n";
        return 0;
    }

    // With "--json -" stdout carries only the report, so the human
    // lines go to stderr.
    std::ostream &out = flags.jsonFile == "-" ? std::cerr : std::cout;

    if (online) {
        // An offline workload or algorithm in a stream sweep would
        // only fail per cell, so reject it up front as a usage error.
        GridSpec &grid = flags.grid;
        grid.workloads = split(streams_csv, ',');
        for (const std::string &stream : grid.workloads)
            if (!isStreamWorkload(stream))
                usage(argv[0], "--streams: '" + stream +
                                   "' is not a stream spec (stream:...)");
        // splitMachineList, not a bare split: faults= suffixes carry
        // commas of their own.
        grid.machines = splitMachineList(machines_csv);
        grid.computeSpeedup = false;
        for (const std::string &policy : split(policies_csv, ',')) {
            std::string error;
            if (!parseOnlinePolicy(policy, &error))
                usage(argv[0], error);
            grid.algorithms.push_back(*parseAlgorithmSpec(policy));
        }

        // The trace is written from the print hook, so only once
        // runGridAndReport has validated the grid: every workload is
        // then a well-formed stream spec (checked above to be a
        // stream, and parsed by validateGrid).
        int trace_code = 0;
        auto write_trace = [&]() {
            std::string traces;
            for (const std::string &stream : flags.grid.workloads) {
                const StreamSpec parsed_stream = *parseStreamSpec(stream);
                auto arrivals = generateArrivals(parsed_stream);
                if (!arrivals.ok()) {
                    std::cerr << argv[0] << ": "
                              << arrivals.status().toString() << "\n";
                    return 1;
                }
                traces += streamTraceText(parsed_stream, *arrivals);
            }
            const Status written = writeFileAtomic(trace_file, traces);
            if (!written.ok()) {
                std::cerr << argv[0] << ": " << written.toString()
                          << "\n";
                return 1;
            }
            out << "wrote " << trace_file << "\n";
            return 0;
        };

        auto print_lines = [&](const GridReport &report) {
            if (!trace_file.empty())
                trace_code = write_trace();
            for (const auto &job : report.results) {
                out << job.workload << " on " << job.machine << " via "
                    << job.algorithm << ": ";
                if (!job.ok()) {
                    out << jobOutcomeName(job.outcome) << " ("
                        << job.diagnostic << ")\n";
                    continue;
                }
                out << job.regions << " regions, weighted "
                    << "completion " << job.weightedCompletion
                    << ", makespan " << job.makespan << ", max flow "
                    << job.maxFlowTime << ", mean flow "
                    << formatDouble(job.meanFlowTime, 1) << ", misses "
                    << job.deadlineMisses << ", preemptions "
                    << job.preemptions << "\n";
            }
        };
        const int code = runGridAndReport(argv[0], usage, flags,
                                          ReportOptions(), true,
                                          print_lines);
        return code != 0 ? code : trace_code;
    }

    // The run is the one cell of a grid, so it gets the grid's job
    // envelope, retries, journal and executor.  Only an in-process run
    // can keep its Schedule (GridSpec::keepSchedules).
    const bool want_schedule = want_gantt || want_placements ||
                               want_pressure;
    if (want_schedule && (flags.grid.isolate ||
                          !flags.grid.hosts.empty() || flags.grid.resume))
        usage(argv[0], "--gantt, --placements and --pressure need an "
                       "in-process run (not --isolate, --hosts or "
                       "--resume)");

    std::string error;
    const auto machine = parseMachineSpec(machine_spec, &error);
    if (machine == nullptr)
        usage(argv[0], error);
    const auto parsed = parseAlgorithmSpec(algorithm_arg, &error);
    if (!parsed.has_value())
        usage(argv[0], error);
    const WorkloadSpec *spec = tryFindWorkload(workload);
    if (spec == nullptr)
        usage(argv[0], "unknown workload '" + workload +
                           "' (try --workload list)");
    flags.grid.workloads = {workload};
    flags.grid.machines = {machine_spec};
    flags.grid.algorithms = {*parsed};
    flags.grid.computeSpeedup = want_speedup;
    flags.grid.keepSchedules = want_schedule;

    bool dot_failed = false;
    auto print_run = [&](const GridReport &report) {
        const JobResult &job = report.results.front();
        if (!job.ok())
            return;  // the failure summary reports it
        out << workload << " on " << machine->name() << " via "
            << job.algorithmName << ": " << job.instructions
            << " instructions, makespan " << job.makespan
            << " cycles (CPL " << job.criticalPathLength
            << "), scheduled in " << formatDouble(job.seconds * 1e3, 2)
            << " ms\n";
        if (want_speedup)
            out << "speedup vs one cluster: "
                << formatDouble(job.speedup, 2) << "x\n";

        // The graph is a pure function of (workload, machine), so it is
        // rebuilt here rather than shipped with the result.
        auto graph = spec->build(machine->numClusters(),
                                 machine->numClusters());
        remapPreplacedForMachine(graph, *machine);
        CSCHED_ASSERT(!want_schedule || job.schedule != nullptr,
                      "an in-process run kept no schedule");
        if (want_pressure) {
            const auto pressure = analyzePressure(graph, *job.schedule);
            out << "peak register pressure: " << pressure.peak()
                << " (budget " << machine->registersPerCluster()
                << "; clusters over budget: "
                << pressure.clustersOverBudget(
                       machine->registersPerCluster())
                << ")\n";
        }
        if (want_trace) {
            if (job.trace.empty())
                out << "(no convergence trace: " << job.algorithmName
                    << " has no pass pipeline)\n";
            for (const auto &step : job.trace)
                out << "  " << step.pass << ": "
                    << formatDouble(step.fractionChanged, 3)
                    << (step.temporalOnly ? " (temporal)" : "") << "  ["
                    << formatDouble(step.seconds * 1e3, 2) << " ms]\n";
        }
        if (want_gantt) {
            out << "\n";
            printGantt(out, graph, *machine, *job.schedule);
        }
        if (want_placements) {
            out << "\n";
            printPlacements(out, graph, *job.schedule);
        }
        if (!dot_file.empty()) {
            std::ostringstream dot;
            exportDot(dot, graph, job.assignment);
            const Status written = writeFileAtomic(dot_file, dot.str());
            if (!written.ok()) {
                std::cerr << argv[0] << ": " << written.toString()
                          << "\n";
                dot_failed = true;
                return;
            }
            out << "wrote " << dot_file << "\n";
        }
    };
    const int code = runGridAndReport(argv[0], usage, flags,
                                      ReportOptions(), true, print_run);
    return dot_failed && code == 0 ? 1 : code;
}
