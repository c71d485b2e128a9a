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
 *     --jobs N            worker threads for the --json report path
 *                         (0 = hardware concurrency)
 *     --gantt             print the per-FU timeline
 *     --placements        print one line per instruction
 *     --trace             print the convergence trace
 *     --dot FILE          write the coloured dependence graph (DOT)
 *     --pressure          print register-pressure stats
 *     --speedup           also compute speedup vs one cluster
 *     --deadline-ms N     per-attempt deadline; 0 = none
 *     --retries N         retry a failed/timed-out run up to N times
 *     --isolate           (with --json) run the job in a forked
 *                         worker process so a crash/hang/OOM becomes
 *                         a recorded outcome, not a process death
 *     --mem-limit-mb N    RLIMIT_AS per isolated worker; 0 = none
 *     --journal FILE      (with --json) append terminal job outcomes
 *                         to FILE as they complete
 *     --resume            (with --journal) replay journaled outcomes
 *                         instead of re-running those jobs
 *     --hosts CSV         (with --json) execute jobs on a fleet of
 *                         csched_workerd daemons, "host:port" each;
 *                         partition-tolerant (see dist/remote_pool.hh)
 *                         and byte-identical to an in-process run
 *     --keep-going        exit 0 even when the run (or a grid job)
 *                         failed
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
 *                         JSONL traces (replay with stream:trace:
 *                         file=FILE when sweeping a single stream)
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
#include "eval/speedup.hh"
#include "grid_driver.hh"
#include "ir/dot_export.hh"
#include "machine/machine_spec.hh"
#include "online/arrival.hh"
#include "online/policy.hh"
#include "tool_version.hh"
#include "runner/shutdown.hh"
#include "sched/register_pressure.hh"
#include "sched/schedule_printer.hh"
#include "support/atomic_file.hh"
#include "support/cancel.hh"
#include "support/fault_injection.hh"
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

    const GridSpec &exec = flags.grid;
    if (exec.resume && exec.journalPath.empty())
        usage(argv[0], "--resume requires --journal");
    if (!exec.journalPath.empty() && flags.jsonFile.empty())
        usage(argv[0], "--journal requires --json (it journals the "
                       "structured run)");
    if (!exec.hosts.empty() && flags.jsonFile.empty())
        usage(argv[0], "--hosts requires --json (remote execution "
                       "runs the structured grid)");
    if (!exec.hosts.empty() && exec.isolate)
        usage(argv[0], "--hosts and --isolate are mutually exclusive "
                       "(remote hosts already isolate every job)");

    installGridSignalHandlers();

    if (online) {
        // An offline algorithm on a stream would only fail per cell,
        // so reject it up front as a usage error.
        GridSpec &grid = flags.grid;
        grid.workloads = split(streams_csv, ',');
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

        if (!trace_file.empty()) {
            std::string traces;
            for (const std::string &stream : grid.workloads) {
                std::string error;
                const auto parsed_stream = parseStreamSpec(stream, &error);
                if (!parsed_stream.has_value())
                    usage(argv[0], error);
                auto arrivals = generateArrivals(*parsed_stream);
                if (!arrivals.ok()) {
                    std::cerr << argv[0] << ": "
                              << arrivals.status().toString() << "\n";
                    return 1;
                }
                traces += streamTraceText(*parsed_stream, *arrivals);
            }
            const Status written = writeFileAtomic(trace_file, traces);
            if (!written.ok()) {
                std::cerr << argv[0] << ": " << written.toString()
                          << "\n";
                return 1;
            }
            std::cout << "wrote " << trace_file << "\n";
        }

        auto print_lines = [&](const GridReport &report) {
            if (!flags.jsonFile.empty() && flags.jsonFile != "-")
                return;
            for (const auto &job : report.results) {
                std::cout << job.workload << " on " << job.machine
                          << " via " << job.algorithm << ": ";
                if (!job.ok()) {
                    std::cout << jobOutcomeName(job.outcome) << " ("
                              << job.diagnostic << ")\n";
                    continue;
                }
                std::cout << job.regions << " regions, weighted "
                          << "completion " << job.weightedCompletion
                          << ", makespan " << job.makespan
                          << ", max flow " << job.maxFlowTime
                          << ", mean flow "
                          << formatDouble(job.meanFlowTime, 1)
                          << ", misses " << job.deadlineMisses
                          << ", preemptions " << job.preemptions
                          << "\n";
            }
        };
        return runGridAndReport(argv[0], usage, flags, ReportOptions(),
                                true, print_lines);
    }

    std::string error;
    const auto machine = parseMachineSpec(machine_spec, &error);
    if (machine == nullptr)
        usage(argv[0], error);

    const auto parsed = parseAlgorithmSpec(algorithm_arg, &error);
    if (!parsed.has_value())
        usage(argv[0], error);
    const AlgorithmSpec &algorithm_spec = *parsed;

    const WorkloadSpec *found = tryFindWorkload(workload);
    if (found == nullptr)
        usage(argv[0], "unknown workload '" + workload +
                           "' (try --workload list)");
    const auto &spec = *found;
    auto graph = spec.build(machine->numClusters(),
                            machine->numClusters());
    remapPreplacedForMachine(graph, *machine);

    // The interactive run is one "job": same fault scope key, deadline,
    // and bounded-retry loop as a grid cell (see runner/job.hh), but
    // keeping the Schedule object for the inspection flags below.
    FaultScope faults(flags.faults.empty() ? nullptr : &flags.faults,
                      workload + "/" + machine_spec + "/" +
                          algorithm_spec.text());
    ScopedFaultScope fault_guard(&faults);

    auto attemptRun = [&]() -> StatusOr<RunResult> {
        try {
            CancelToken token;
            if (exec.deadlineMs > 0)
                token.armDeadline(exec.deadlineMs);
            ScopedCancelToken cancel_guard(&token);
            checkpoint("runner.job.start");
            auto algorithm = tryMakeAlgorithm(algorithm_spec, *machine);
            if (!algorithm.ok())
                return algorithm.status();
            return tryRunAndCheck(**algorithm, graph, *machine);
        } catch (const StatusError &error) {
            return error.status;
        }
    };
    auto run = attemptRun();
    int attempts = 1;
    while (!run.ok() && run.status().code() != ErrorCode::InvalidSpec &&
           run.status().code() != ErrorCode::Interrupted &&
           attempts <= exec.retries) {
        ++attempts;
        run = attemptRun();
    }
    if (!run.ok()) {
        std::cerr << argv[0] << ": " << workload << " on "
                  << machine_spec << " failed after " << attempts
                  << (attempts == 1 ? " attempt: " : " attempts: ")
                  << run.status().toString() << "\n";
        if (run.status().code() == ErrorCode::Interrupted)
            return interruptExitCode(interruptSignal());
        return flags.keepGoing ? 0 : 1;
    }
    const Schedule &schedule = run->result.schedule;

    std::cout << workload << " on " << machine->name() << " via "
              << run->algorithm << ": " << run->instructions
              << " instructions, makespan " << run->makespan
              << " cycles (CPL " << graph.criticalPathLength()
              << "), scheduled in "
              << formatDouble(run->seconds * 1e3, 2) << " ms\n";

    if (want_speedup) {
        const auto base = trySingleClusterMakespan(spec, *machine);
        if (!base.ok()) {
            std::cerr << argv[0] << ": " << base.status().toString()
                      << "\n";
            return flags.keepGoing ? 0 : 1;
        }
        std::cout << "speedup vs one cluster: "
                  << formatDouble(static_cast<double>(*base) /
                                      static_cast<double>(run->makespan),
                                  2)
                  << "x\n";
    }
    if (want_pressure) {
        const auto report = analyzePressure(graph, schedule);
        std::cout << "peak register pressure: " << report.peak()
                  << " (budget " << machine->registersPerCluster()
                  << "; clusters over budget: "
                  << report.clustersOverBudget(
                         machine->registersPerCluster())
                  << ")\n";
    }
    if (want_trace) {
        if (run->result.trace.empty())
            std::cout << "(no convergence trace: " << run->algorithm
                      << " has no pass pipeline)\n";
        for (const auto &step : run->result.trace)
            std::cout << "  " << step.pass << ": "
                      << formatDouble(step.fractionChanged, 3)
                      << (step.temporalOnly ? " (temporal)" : "")
                      << "  [" << formatDouble(step.seconds * 1e3, 2)
                      << " ms]\n";
    }
    if (want_gantt) {
        std::cout << "\n";
        printGantt(std::cout, graph, *machine, schedule);
    }
    if (want_placements) {
        std::cout << "\n";
        printPlacements(std::cout, graph, schedule);
    }
    if (!dot_file.empty()) {
        std::ostringstream out;
        exportDot(out, graph, schedule.assignment());
        const Status written = writeFileAtomic(dot_file, out.str());
        if (!written.ok()) {
            std::cerr << argv[0] << ": " << written.toString() << "\n";
            return 1;
        }
        std::cout << "wrote " << dot_file << "\n";
    }
    if (!flags.jsonFile.empty()) {
        flags.grid.workloads = {workload};
        flags.grid.machines = {machine_spec};
        flags.grid.algorithms = {algorithm_spec};
        flags.grid.computeSpeedup = want_speedup;
        return runGridAndReport(argv[0], usage, flags, ReportOptions(),
                                true, nullptr);
    }
    return 0;
}
