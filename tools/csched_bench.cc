/**
 * @file
 * The benchmark driver, a small subcommand-style CLI:
 *
 *   csched_bench suite [options]   grid runner (table + JSON report)
 *   csched_bench perf  [options]   perf trajectory: BENCH_*.json
 *   csched_bench list              workloads, algorithms, passes
 *
 * `suite` is the batch experiment driver: run a (workload x machine x
 * algorithm) grid on a thread pool and report a table and/or a
 * csched-grid-report-v2 JSON document.  E.g. Figure 8 is
 *
 *   csched_bench suite --suite vliw --machines vliw4 \
 *                      --algorithms pcc,uas,convergent
 *
 *   csched_bench suite [options]
 *     --workloads A,B,...   explicit workload list
 *     --suite raw|vliw|all  named workload suite (default: all)
 *     --machines S,S,...    machine specs (default vliw4)
 *     --algorithms A,A,...  algorithm specs (default convergent);
 *                           "convergent:PASS,PASS" selects a custom
 *                           pass sequence
 *     --jobs N              worker threads; 0 = hardware concurrency
 *                           (default 0).  Results are bit-identical
 *                           for every N.
 *     --json FILE           write the structured report ("-" = stdout)
 *     --no-timings          omit wall-clock fields from the JSON so
 *                           reports are byte-identical across runs
 *     --no-assignments      omit per-instruction assignment vectors
 *     --no-speedup          skip the one-cluster normalisation runs
 *     --deadline-ms N       per-attempt deadline per job; 0 = none
 *     --retries N           retry failed/timed-out jobs up to N times
 *     --isolate             run each job in a forked worker process:
 *                           a segfault, hang, or memory runaway is
 *                           contained as that cell's outcome (with
 *                           the fatal signal/exit status recorded)
 *                           instead of killing the run.  Reported
 *                           numbers are byte-identical either way.
 *     --mem-limit-mb N      RLIMIT_AS per isolated worker; 0 = none
 *     --journal FILE        append every terminal job outcome to FILE
 *                           as it completes (crash-safe JSONL)
 *     --resume              skip jobs already recorded in --journal
 *                           and replay their outcomes; the final
 *                           report is byte-identical to an
 *                           uninterrupted run
 *     --hosts CSV           execute jobs on a fleet of csched_workerd
 *                           daemons ("host:port" each) instead of
 *                           in-process; partition-tolerant (leases
 *                           reassign on host loss) and byte-identical
 *                           to an in-process run at any host count
 *     --keep-going          exit 0 even when jobs failed (the report
 *                           still marks every failed cell)
 *     --quiet               suppress the human-readable table
 *
 * A failing job never aborts the grid: its cell is marked in the table
 * and the JSON, healthy cells are salvaged, a summary goes to stderr,
 * and the exit status is 1 unless --keep-going.  SIGINT/SIGTERM drain
 * in-flight jobs, journal them, write a partial report marked
 * "interrupted", and exit 128+signum; a --resume re-run completes the
 * grid.  File outputs are atomic (tmp + fsync + rename).  (There is
 * also a hidden --inject RULES option, the deterministic
 * fault-injection harness used by the robustness tests; see
 * fault_injection.hh for the rule grammar.)
 *
 * `perf` measures the convergent-scheduler hot path and emits the
 * csched-bench-report-v1 documents of the tracked perf trajectory
 * (see runner/bench_report.hh for the schema):
 *
 *   csched_bench perf [options]
 *     --out-dir DIR         where BENCH_pass_kernels.json,
 *                           BENCH_end_to_end.json, BENCH_online.json,
 *                           BENCH_mesh.json, and BENCH_dist.json are
 *                           written (default ".")
 *     --repeats N           samples per cell, median-of-N (default 5)
 *     --quick               repeats 3 and the small cell set; the
 *                           ci.sh perf gate uses this
 *     --cells W/M[/ALG],... override the end-to-end cell list
 *     --check               compare the end-to-end, online, mesh,
 *                           and dist medians against the baseline and
 *                           exit 1 on a slowdown of more than 15%;
 *                           prints the per-kernel delta table as the
 *                           diagnostic on failure
 *     --baseline-dir DIR    where --check finds the baseline
 *                           (default: the repository checkout, ".")
 *     --annotate-pre-rewrite FILE
 *                           attach the medians of FILE (an end-to-end
 *                           bench report measured on the pre-rewrite
 *                           engine) as preRewriteSeconds
 *
 * Every perf cell is timed the same way: one untimed warm-up run, then
 * --repeats timed runs, reported as their median and min.  Fixtures
 * (graph build, arrival generation, daemon start-up) are never timed,
 * except that the end-to-end kind also has two "build" cells, which
 * time whole graph builds (synth-huge-100k on vliw4, mxm on raw32x32,
 * banks = clusters as in a suite run), so the build's cost is gated.
 *
 * The mesh cells time the degraded-machine hot paths on a 32x32 Raw
 * mesh, fault-free and 10% degraded: machine construction (fault-map
 * materialisation plus detour-table BFS) and full schedule+check runs
 * of the baselines (UAS and Rawcc on mxm, PCC on tomcatv, 16 banks)
 * with the fault-aware router and checker.  The dist cells fork
 * two localhost csched_workerd daemons and time a small fixed grid
 * through them against the same grid under --isolate, so the
 * remote-dispatch overhead is a gated number, not a guess.
 */

#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "convergent/pass_registry.hh"
#include "dist/workerd.hh"
#include "eval/experiment.hh"
#include "eval/online_metrics.hh"
#include "grid_driver.hh"
#include "machine/machine_spec.hh"
#include "online/arrival.hh"
#include "online/online_scheduler.hh"
#include "online/policy.hh"
#include "runner/bench_report.hh"
#include "runner/shutdown.hh"
#include "support/atomic_file.hh"
#include "support/stats.hh"
#include "support/str.hh"
#include "support/table.hh"
#include "tool_version.hh"
#include "workloads/workloads.hh"

using namespace csched;

namespace {

[[noreturn]] void
usage(const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::cerr << argv0 << ": " << why << "\n";
    std::cerr
        << "usage: " << argv0 << " suite|perf|list [options]\n"
        << "  suite [--workloads A,B|--suite raw|vliw|all]"
        << " [--machines S,S]\n"
        << "    [--algorithms A,A] [--jobs N] [--json FILE]"
        << " [--no-timings]\n"
        << "    [--no-assignments] [--no-speedup] [--deadline-ms N]"
        << " [--retries N]\n"
        << "    [--isolate] [--mem-limit-mb N] [--journal FILE]"
        << " [--resume]\n"
        << "    [--hosts CSV] [--keep-going] [--quiet]\n"
        << "  perf [--out-dir DIR] [--repeats N] [--quick]"
        << " [--cells W/M,..] [--check]\n"
        << "    [--baseline-dir DIR] [--annotate-pre-rewrite FILE]\n"
        << "  list\n";
    std::exit(2);
}

std::vector<std::string>
suiteWorkloads(const std::string &suite)
{
    if (suite == "raw")
        return rawSuiteNames();
    if (suite == "vliw")
        return vliwSuiteNames();
    if (suite == "all") {
        std::vector<std::string> names;
        for (const auto &spec : allWorkloads())
            names.push_back(spec.name);
        return names;
    }
    return {};
}

// ---- suite ---------------------------------------------------------

int
runSuite(const char *argv0, const std::vector<std::string> &args)
{
    GridFlags flags;
    GridSpec &grid = flags.grid;
    grid.machines = {"vliw4"};
    grid.jobs = 0;
    std::string suite = "all";
    std::string workloads_arg;
    std::string algorithms_arg = "convergent";
    ReportOptions report_options;
    bool quiet = false;

    for (size_t k = 0; k < args.size(); ++k) {
        if (parseGridFlag(argv0, usage, args, k, flags))
            continue;
        const std::string arg = args[k];
        auto next = [&]() -> std::string {
            if (k + 1 >= args.size())
                usage(argv0, arg + " needs a value");
            return args[++k];
        };
        if (arg == "--workloads") {
            workloads_arg = next();
        } else if (arg == "--suite") {
            suite = next();
        } else if (arg == "--machines" || arg == "--machine") {
            // splitMachineList, not a bare split: faults= suffixes
            // carry commas of their own.
            grid.machines = splitMachineList(next());
        } else if (arg == "--algorithms" || arg == "--algorithm") {
            algorithms_arg = next();
        } else if (arg == "--no-timings") {
            report_options.timings = false;
        } else if (arg == "--no-assignments") {
            report_options.assignments = false;
        } else if (arg == "--no-speedup") {
            grid.computeSpeedup = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage(argv0, "unknown option '" + arg + "'");
        }
    }

    grid.workloads = workloads_arg.empty()
                         ? suiteWorkloads(suite)
                         : split(workloads_arg, ',');
    if (grid.workloads.empty())
        usage(argv0, "unknown suite '" + suite +
                         "' (expected raw|vliw|all)");

    // Algorithm specs may contain colons+commas ("convergent:A,B"),
    // so split on commas only outside a sequence: a part that names a
    // known algorithm starts a new spec, otherwise it continues the
    // previous spec's pass list.
    for (const auto &part : split(algorithms_arg, ',')) {
        std::string error;
        const auto parsed = parseAlgorithmSpec(part, &error);
        if (parsed.has_value()) {
            grid.algorithms.push_back(*parsed);
        } else if (!grid.algorithms.empty() &&
                   !grid.algorithms.back().sequence.empty()) {
            grid.algorithms.back().sequence += "," + trim(part);
        } else {
            usage(argv0, error);
        }
    }
    // Re-validate the stitched-together sequences.
    for (auto &spec : grid.algorithms) {
        std::string error;
        const auto parsed = parseAlgorithmSpec(spec.text(), &error);
        if (!parsed.has_value())
            usage(argv0, error);
        spec = *parsed;
    }

    auto print_table = [&](const GridReport &report) {
        TablePrinter table({"workload", "machine", "algorithm",
                            "instrs", "makespan", "speedup", "ms"});
        for (const auto &job : report.results) {
            if (!job.ok()) {
                const std::string mark = jobOutcomeName(job.outcome);
                table.addRow({job.workload, job.machine, job.algorithm,
                              mark, mark, mark, mark});
                continue;
            }
            table.addRow(
                {job.workload, job.machine, job.algorithm,
                 std::to_string(job.instructions),
                 std::to_string(job.makespan),
                 grid.computeSpeedup ? formatDouble(job.speedup, 2)
                                     : "-",
                 formatDouble(job.seconds * 1e3, 2)});
        }
        table.print(std::cout);
        std::cout << "\n" << report.results.size() << " jobs on "
                  << report.threads << " thread"
                  << (report.threads == 1 ? "" : "s") << " in "
                  << formatDouble(report.wallSeconds, 2) << " s\n";
    };
    using Print = std::function<void(const GridReport &)>;
    return runGridAndReport(argv0, usage, flags, report_options, !quiet,
                            quiet ? Print() : Print(print_table));
}

// ---- perf ----------------------------------------------------------

/** One perf cell: a workload on a machine under an algorithm. */
struct PerfCell
{
    std::string workload;
    std::string machine;
    std::string algorithm = "convergent";
};

std::vector<PerfCell>
parsePerfCells(const char *argv0, const std::string &text)
{
    std::vector<PerfCell> cells;
    for (const auto &part : split(text, ',')) {
        const auto fields = split(part, '/');
        if (fields.size() != 2 && fields.size() != 3)
            usage(argv0, "cell '" + part +
                             "' is not workload/machine[/algorithm]");
        PerfCell cell;
        cell.workload = fields[0];
        cell.machine = fields[1];
        if (fields.size() == 3)
            cell.algorithm = fields[2];
        cells.push_back(cell);
    }
    return cells;
}

std::optional<std::string>
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

BenchMeta
collectMeta(int repeats)
{
    BenchMeta meta;
    meta.commit = CSCHED_GIT_COMMIT;
    meta.gitDescribe = CSCHED_GIT_DESCRIBE;
    meta.buildType = CSCHED_BUILD_TYPE;
    meta.flags = CSCHED_CXX_FLAGS;
    meta.compiler = __VERSION__;
    struct utsname names;
    if (uname(&names) == 0)
        meta.host = std::string(names.sysname) + " " + names.release +
                    " " + names.machine;
    else
        meta.host = "unknown";
    meta.repeats = repeats;
    return meta;
}

/** One forked localhost csched_workerd for the dist perf cells. */
struct WorkerdChild
{
    pid_t pid = -1;
    uint16_t port = 0;
};

/**
 * Fork a csched_workerd serving on an ephemeral loopback port and
 * report the port back over a pipe.  The child dies with the bench
 * process (PDEATHSIG) or on the explicit SIGTERM of reapWorkerd().
 */
std::optional<WorkerdChild>
spawnPerfWorkerd(int workers)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return std::nullopt;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return std::nullopt;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        installServeSignalHandlers();
        WorkerdOptions options;
        options.workers = workers;
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
    if (got <= 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return std::nullopt;
    }
    WorkerdChild child;
    child.pid = pid;
    child.port = static_cast<uint16_t>(std::atoi(buffer));
    return child;
}

void
reapWorkerd(const WorkerdChild &child)
{
    if (child.pid <= 0)
        return;
    ::kill(child.pid, SIGTERM);
    ::waitpid(child.pid, nullptr, 0);
}

/**
 * Per-pass kernel names for a trace, disambiguating repeated passes
 * by occurrence ("PATHPROP", "PATHPROP.2", "PATHPROP.3").
 */
std::vector<std::string>
kernelNames(const std::vector<PassStep> &trace)
{
    std::map<std::string, int> seen;
    std::vector<std::string> names;
    for (const auto &step : trace) {
        const int occurrence = ++seen[step.pass];
        names.push_back(occurrence == 1
                            ? step.pass
                            : step.pass + "." +
                                  std::to_string(occurrence));
    }
    return names;
}

/**
 * The perf timing rule every cell follows: call @p rep once untimed
 * (the warm-up), then @p repeats times timed.  One call returns the
 * seconds of each quantity it measures -- one for a whole-call cell,
 * one per pass for the pass kernels -- and the result holds each
 * quantity's median and min over the timed calls.
 */
std::vector<BenchCell>
timeReps(int repeats, const std::function<std::vector<double>()> &rep)
{
    (void)rep();  // warm-up, untimed
    std::vector<std::vector<double>> samples;
    for (int k = 0; k < repeats; ++k) {
        const std::vector<double> seconds = rep();
        samples.resize(seconds.size());
        for (size_t q = 0; q < seconds.size(); ++q)
            samples[q].push_back(seconds[q]);
    }
    std::vector<BenchCell> cells(samples.size());
    for (size_t q = 0; q < samples.size(); ++q) {
        cells[q].medianSeconds = median(samples[q]);
        cells[q].minSeconds =
            *std::min_element(samples[q].begin(), samples[q].end());
        cells[q].reps = repeats;
    }
    return cells;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

/** The two forked workerd daemons of the dist cells, reaped on exit. */
struct PerfFleet
{
    std::optional<WorkerdChild> a = spawnPerfWorkerd(2);
    std::optional<WorkerdChild> b = spawnPerfWorkerd(2);

    PerfFleet() = default;
    PerfFleet(const PerfFleet &) = delete;
    PerfFleet &operator=(const PerfFleet &) = delete;

    ~PerfFleet()
    {
        for (const auto &child : {a, b})
            if (child.has_value())
                reapWorkerd(*child);
    }
};

/** One BENCH kind: its document, whether --check gates it, its cells. */
struct PerfKind
{
    const char *kind;
    const char *file;
    bool gated;
    /** Append the kind's cells; throws StatusError when a run fails. */
    std::function<void(std::vector<BenchCell> &)> measure;
};

int
runPerf(const char *argv0, const std::vector<std::string> &args)
{
    std::string out_dir = ".";
    std::string baseline_dir = ".";
    std::string annotate_file;
    int repeats = 5;
    bool quick = false;
    bool check = false;
    std::string cells_arg;

    for (size_t k = 0; k < args.size(); ++k) {
        const std::string arg = args[k];
        auto next = [&]() -> std::string {
            if (k + 1 >= args.size())
                usage(argv0, arg + " needs a value");
            return args[++k];
        };
        if (arg == "--out-dir") {
            out_dir = next();
        } else if (arg == "--baseline-dir") {
            baseline_dir = next();
        } else if (arg == "--repeats") {
            const std::string text = next();
            const std::optional<int> parsed = parseNonNegativeInt(text);
            if (!parsed || *parsed < 1)
                usage(argv0, "--repeats expects an integer >= 1, got '" +
                                 text + "'");
            repeats = *parsed;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--cells") {
            cells_arg = next();
        } else if (arg == "--annotate-pre-rewrite") {
            annotate_file = next();
        } else {
            usage(argv0, "unknown perf option '" + arg + "'");
        }
    }
    if (quick)
        repeats = std::min(repeats, 3);

    // The default cell sets: the acceptance cell (synth-wide-10k on
    // the four-cluster VLIW) plus the narrow window-stress shape and
    // three paper kernels for continuity with the figures.
    std::vector<PerfCell> e2e_cells = {
        {"synth-wide-10k", "vliw4", "convergent"},
        {"synth-narrow-2k", "vliw4", "convergent"},
        {"synth-narrow-2k", "raw4", "convergent"},
        {"mxm", "vliw4", "convergent"},
        {"cholesky", "vliw4", "convergent"},
        {"sha", "raw4", "convergent"},
    };
    std::vector<PerfCell> kernel_cells = {
        {"synth-wide-10k", "vliw4", "convergent"},
        {"synth-narrow-2k", "raw4", "convergent"},
        {"mxm", "vliw4", "convergent"},
    };
    // Online cells measure the whole commit loop -- admission,
    // per-region planning, and (for plan-ahead) preempt-and-recommit
    // -- over a deterministic arrival stream.
    const std::string perf_stream =
        "stream:bursty:n=12:seed=11:gap=200:burst=4:"
        "workloads=fir+vvmul+jacobi";
    std::vector<PerfCell> online_cells = {
        {perf_stream, "vliw4", "online-convergent"},
        {perf_stream, "vliw4", "online-sp"},
        {perf_stream, "vliw4", "online-pcc"},
    };
    if (quick) {
        e2e_cells = {{"synth-wide-10k", "vliw4", "convergent"},
                     {"synth-narrow-2k", "raw4", "convergent"}};
        kernel_cells = {{"synth-wide-10k", "vliw4", "convergent"}};
        online_cells = {{perf_stream, "vliw4", "online-convergent"}};
    }
    if (!cells_arg.empty())
        e2e_cells = parsePerfCells(argv0, cells_arg);

    auto prepare = [&](const PerfCell &cell,
                       std::unique_ptr<MachineModel> *machine,
                       std::unique_ptr<SchedulingAlgorithm> *algorithm)
        -> DependenceGraph {
        std::string error;
        *machine = parseMachineSpec(cell.machine, &error);
        if (*machine == nullptr)
            usage(argv0, error);
        const auto spec = parseAlgorithmSpec(cell.algorithm, &error);
        if (!spec.has_value())
            usage(argv0, error);
        *algorithm = makeAlgorithm(*spec, **machine);
        const WorkloadSpec *workload = tryFindWorkload(cell.workload);
        if (workload == nullptr)
            usage(argv0, "unknown workload '" + cell.workload + "'");
        const int clusters = (*machine)->numClusters();
        return workload->build(clusters, clusters);
    };
    auto logCell = [&](const BenchCell &cell, const std::string &note) {
        std::cerr << "perf: " << cell.key() << " median "
                  << formatDouble(cell.medianSeconds * 1e3, 2)
                  << " ms over " << repeats << " reps" << note << "\n";
    };

    // End-to-end cells: the wall time of a full schedule() call.
    auto measureEndToEnd = [&](std::vector<BenchCell> &out) {
        for (const auto &cell : e2e_cells) {
            std::unique_ptr<MachineModel> machine;
            std::unique_ptr<SchedulingAlgorithm> algorithm;
            const DependenceGraph graph =
                prepare(cell, &machine, &algorithm);
            int makespan = 0;
            BenchCell timed = timeReps(repeats, [&] {
                const auto begin = Clock::now();
                const ScheduleResult result = algorithm->run(graph);
                const double seconds = secondsSince(begin);
                makespan = result.schedule.makespan();
                return std::vector<double>{seconds};
            })[0];
            timed.workload = cell.workload;
            timed.machine = cell.machine;
            timed.algorithm = cell.algorithm;
            timed.instructions = graph.numInstructions();
            timed.makespan = makespan;
            out.push_back(timed);
            logCell(timed, "");
        }
        // Build cells: like the mesh kind's construct cells, the set is
        // fixed so quick and full runs join against the same baseline
        // keys.
        struct BuildCell
        {
            const char *workload;
            const char *machine;
        };
        const BuildCell build_cells[] = {{"synth-huge-100k", "vliw4"},
                                         {"mxm", "raw32x32"}};
        for (const BuildCell &cell : build_cells) {
            std::string error;
            const auto machine = parseMachineSpec(cell.machine, &error);
            if (machine == nullptr)
                usage(argv0, error);
            const int banks = machine->numClusters();
            const WorkloadSpec &workload = findWorkload(cell.workload);
            int instructions = 0;
            BenchCell timed = timeReps(repeats, [&] {
                const auto begin = Clock::now();
                const DependenceGraph graph = workload.build(banks, banks);
                const double seconds = secondsSince(begin);
                instructions = graph.numInstructions();
                return std::vector<double>{seconds};
            })[0];
            timed.workload = cell.workload;
            timed.machine = cell.machine;
            timed.kernel = "build";
            timed.instructions = instructions;
            out.push_back(timed);
            logCell(timed, "");
        }
    };

    // Pass-kernel cells: per-pass wall times from the pipeline trace,
    // one quantity per trace position.
    auto measureKernels = [&](std::vector<BenchCell> &out) {
        for (const auto &cell : kernel_cells) {
            std::unique_ptr<MachineModel> machine;
            std::unique_ptr<SchedulingAlgorithm> algorithm;
            const DependenceGraph graph =
                prepare(cell, &machine, &algorithm);
            std::vector<std::string> names;
            std::vector<BenchCell> timed = timeReps(repeats, [&] {
                const ScheduleResult result = algorithm->run(graph);
                names = kernelNames(result.trace);
                std::vector<double> seconds;
                for (const auto &step : result.trace)
                    seconds.push_back(step.seconds);
                return seconds;
            });
            for (size_t k = 0; k < timed.size(); ++k) {
                timed[k].workload = cell.workload;
                timed[k].machine = cell.machine;
                timed[k].kernel = names[k];
                out.push_back(timed[k]);
            }
            std::cerr << "perf: " << cell.workload << "/" << cell.machine
                      << " pass kernels measured (" << names.size()
                      << " passes x " << repeats << " reps)\n";
        }
    };

    // Online cells: one full runOnline() commit loop over a
    // pre-generated arrival stream (generation is untimed -- the
    // stream is the fixture, the loop is the engine).
    auto measureOnline = [&](std::vector<BenchCell> &out) {
        for (const auto &cell : online_cells) {
            std::string error;
            const auto machine = parseMachineSpec(cell.machine, &error);
            if (machine == nullptr)
                usage(argv0, error);
            const auto stream = parseStreamSpec(cell.workload, &error);
            if (!stream.has_value())
                usage(argv0, error);
            const auto policy =
                parseOnlinePolicy(cell.algorithm, &error);
            if (!policy.has_value())
                usage(argv0, error);
            const auto arrivals = generateArrivals(*stream);
            if (!arrivals.ok())
                usage(argv0, arrivals.status().toString());

            OnlineMetrics metrics;
            BenchCell timed = timeReps(repeats, [&] {
                const auto begin = Clock::now();
                const auto run = runOnline(*machine, *policy, *arrivals);
                const double seconds = secondsSince(begin);
                if (!run.ok())
                    throw StatusError(run.status().withContext(
                        "online cell " + cell.workload + "/" +
                        cell.machine + "/" + cell.algorithm));
                metrics = computeOnlineMetrics(run->commits);
                return std::vector<double>{seconds};
            })[0];
            timed.workload = cell.workload;
            timed.machine = cell.machine;
            timed.algorithm = cell.algorithm;
            timed.instructions = metrics.instructions;
            timed.makespan = metrics.makespan;
            out.push_back(timed);
            logCell(timed,
                    " (" + std::to_string(metrics.regions) + " regions)");
        }
    };

    // Mesh cells: the degraded-machine hot paths on a 32x32 mesh.
    // Per machine (fault-free and 10% degraded): "construct" is one
    // tryParseMachineSpec call (fault-map materialisation plus the
    // per-destination detour-table BFS on 1024 tiles), and each
    // "schedule" cell is one tryRunAndCheck call of a baseline on a
    // kernel (the baseline's own search, the fault-aware router inside
    // scheduling and the dead-resource checker rules).  The cell set
    // is fixed so quick and full runs join against the same baseline
    // keys.
    auto measureMesh = [&](std::vector<BenchCell> &out) {
        struct ScheduleCell
        {
            const char *algorithm;
            const char *workload;
        };
        const ScheduleCell schedule_cells[] = {
            {"uas", "mxm"}, {"pcc", "tomcatv"}, {"rawcc", "mxm"}};
        for (const std::string machine_spec :
             {"raw32x32", "raw32x32/faults=seed:1,tiles:10%,links:3%"}) {
            std::unique_ptr<MachineModel> machine;
            BenchCell construct = timeReps(repeats, [&] {
                const auto begin = Clock::now();
                auto built = tryParseMachineSpec(machine_spec);
                const double seconds = secondsSince(begin);
                if (!built.ok())
                    throw StatusError(built.status().withContext(
                        "mesh cell " + machine_spec));
                machine = std::move(*built);
                return std::vector<double>{seconds};
            })[0];
            construct.workload = "-";
            construct.machine = machine_spec;
            construct.kernel = "construct";
            out.push_back(construct);
            std::cerr << "perf: mesh " << machine_spec << " construct "
                      << formatDouble(construct.medianSeconds * 1e3, 2)
                      << " ms";

            for (const ScheduleCell &cell : schedule_cells) {
                const auto algorithm = makeAlgorithm(
                    *parseAlgorithmSpec(cell.algorithm), *machine);
                // Fixed bank count: kernel sizes scale with banks, and
                // the cell measures 1024 tiles, not a 65k-instr graph.
                // Preplacement still spreads over the whole mesh.
                DependenceGraph graph =
                    tryFindWorkload(cell.workload)
                        ->build(16, machine->numClusters());
                remapPreplacedForMachine(graph, *machine);
                int makespan = 0;
                BenchCell schedule = timeReps(repeats, [&] {
                    const auto begin = Clock::now();
                    const auto run =
                        tryRunAndCheck(*algorithm, graph, *machine);
                    const double seconds = secondsSince(begin);
                    if (!run.ok())
                        throw StatusError(run.status().withContext(
                            std::string("mesh cell ") + cell.workload +
                            "/" + machine_spec + "/" + cell.algorithm));
                    makespan = run->makespan;
                    return std::vector<double>{seconds};
                })[0];
                schedule.workload = cell.workload;
                schedule.machine = machine_spec;
                schedule.kernel = "schedule";
                schedule.algorithm = cell.algorithm;
                schedule.instructions = graph.numInstructions();
                schedule.makespan = makespan;
                out.push_back(schedule);
                std::cerr << ", " << cell.algorithm << " "
                          << cell.workload << " "
                          << formatDouble(schedule.medianSeconds * 1e3, 2)
                          << " ms";
            }
            std::cerr << " over " << repeats << " reps\n";
        }
    };

    // Dist cells: the distributed execution path end to end.  One
    // fixed small grid (the same for quick and full runs, so the
    // gate's key join always finds both cells) is timed through
    // runGrid() twice -- under --isolate (the in-process containment
    // baseline) and over a localhost fleet of two forked workerd
    // daemons -- so the gate tracks the dispatch/lease/heartbeat
    // overhead the RemoteWorkerPool adds on top of the same
    // forked-worker execution.
    auto measureDist = [&](std::vector<BenchCell> &out) {
        GridSpec dist_grid;
        dist_grid.workloads = {"fir", "vvmul", "jacobi"};
        dist_grid.machines = {"vliw4"};
        dist_grid.algorithms = {*parseAlgorithmSpec("convergent")};
        dist_grid.jobs = 4;
        dist_grid.computeSpeedup = true;

        const PerfFleet fleet;
        if (!fleet.a.has_value() || !fleet.b.has_value())
            throw StatusError(
                Status::internal("dist cells: cannot fork workerd"));

        // The mode label lands in the cell's kernel field so the two
        // modes join as distinct keys.
        for (const std::string mode : {"isolate", "dist-2x2"}) {
            GridSpec grid = dist_grid;
            if (mode == "isolate") {
                grid.isolate = true;
            } else {
                grid.hosts = {
                    "127.0.0.1:" + std::to_string(fleet.a->port),
                    "127.0.0.1:" + std::to_string(fleet.b->port)};
            }
            BenchCell timed = timeReps(repeats, [&] {
                const GridReport report = runGrid(grid);
                if (!report.allOk())
                    throw StatusError(Status::internal(
                        "dist cell " + mode + ": grid run failed"));
                return std::vector<double>{report.wallSeconds};
            })[0];
            timed.workload = "fir+vvmul+jacobi";
            timed.machine = "vliw4";
            timed.kernel = mode;
            out.push_back(timed);
            logCell(timed, "");
        }
    };

    // The perf record, in measurement order.  --check gates the
    // end-to-end, online, mesh and dist medians; per-pass kernel times
    // cover ~a third of a schedule() call, so machine-load noise swings
    // them far more than the cells the gate protects, and their delta
    // table is printed only as the diagnostic of a failed gate (it
    // localises the regression to a pass).
    const std::vector<PerfKind> kinds = {
        {"end-to-end", "BENCH_end_to_end.json", true, measureEndToEnd},
        {"pass-kernels", "BENCH_pass_kernels.json", false,
         measureKernels},
        {"online", "BENCH_online.json", true, measureOnline},
        {"mesh", "BENCH_mesh.json", true, measureMesh},
        {"dist", "BENCH_dist.json", true, measureDist},
    };
    std::vector<BenchReport> reports(kinds.size());
    try {
        for (size_t k = 0; k < kinds.size(); ++k) {
            reports[k].kind = kinds[k].kind;
            reports[k].meta = collectMeta(repeats);
            kinds[k].measure(reports[k].cells);
        }
    } catch (const StatusError &error) {
        std::cerr << argv0 << ": " << error.status.toString() << "\n";
        return 1;
    }

    // Optionally attach pre-rewrite medians to the end-to-end cells so
    // the trajectory's starting point travels with the report.
    if (!annotate_file.empty()) {
        const auto loaded = readWholeFile(annotate_file);
        if (!loaded.has_value()) {
            std::cerr << argv0 << ": cannot read " << annotate_file
                      << "\n";
            return 1;
        }
        std::string error;
        const auto pre = parseBenchReport(*loaded, &error);
        if (!pre.has_value()) {
            std::cerr << argv0 << ": " << annotate_file << ": "
                      << error << "\n";
            return 1;
        }
        std::map<std::string, double> pre_by_key;
        for (const auto &cell : pre->cells)
            pre_by_key[cell.key()] = cell.medianSeconds;
        for (auto &cell : reports[0].cells) {
            const auto it = pre_by_key.find(cell.key());
            if (it != pre_by_key.end())
                cell.preRewriteSeconds = it->second;
        }
    }

    // mkdir -p for the output directory (existing components are ok).
    std::string dir_prefix;
    for (const auto &component : split(out_dir, '/')) {
        dir_prefix += component + "/";
        if (!component.empty() && component != ".")
            ::mkdir(dir_prefix.c_str(), 0777);
    }
    for (size_t k = 0; k < kinds.size(); ++k) {
        const std::string path = out_dir + "/" + kinds[k].file;
        const Status written =
            writeFileAtomic(path, benchReportToJson(reports[k]));
        if (!written.ok()) {
            std::cerr << argv0 << ": " << written.toString() << "\n";
            return 1;
        }
        std::cerr << "perf: wrote " << path << "\n";
    }

    if (!check)
        return 0;

    // The regression gate: join each gated kind against its committed
    // baseline and fail on a median slowdown beyond the threshold.
    const BenchCompareOptions compare;
    std::vector<std::optional<BenchReport>> baselines(kinds.size());
    bool loaded_all = true;
    for (size_t k = 0; k < kinds.size(); ++k) {
        const std::string base_path = baseline_dir + "/" + kinds[k].file;
        const auto loaded = readWholeFile(base_path);
        if (!loaded.has_value()) {
            if (kinds[k].gated) {
                std::cerr << argv0 << ": perf gate: no baseline "
                          << base_path << "\n";
                loaded_all = false;
            }
            continue;
        }
        std::string error;
        baselines[k] = parseBenchReport(*loaded, &error);
        if (!baselines[k].has_value() && kinds[k].gated) {
            std::cerr << argv0 << ": perf gate: " << base_path << ": "
                      << error << "\n";
            loaded_all = false;
        }
    }
    if (!loaded_all) {
        std::cerr << argv0 << ": perf gate FAILED\n";
        return 1;
    }
    bool ok = true;
    for (size_t k = 0; k < kinds.size(); ++k) {
        if (!kinds[k].gated)
            continue;
        std::cout << "perf gate: " << kinds[k].kind << " vs "
                  << baseline_dir << "/" << kinds[k].file
                  << " (threshold "
                  << formatDouble(compare.slowdownThreshold * 100, 0)
                  << "%)\n";
        ok = compareBenchReports(*baselines[k], reports[k], compare,
                                 std::cout) &&
             ok;
        std::cout << "\n";
    }
    if (!ok) {
        for (size_t k = 0; k < kinds.size(); ++k) {
            if (kinds[k].gated || !baselines[k].has_value())
                continue;
            std::cout << "perf gate: " << kinds[k].kind
                      << " deltas (diagnostic)\n";
            (void)compareBenchReports(*baselines[k], reports[k], compare,
                                      std::cout);
            std::cout << "\n";
        }
        std::cerr << argv0 << ": perf gate FAILED\n";
        return 1;
    }
    std::cout << "perf gate ok\n";
    return 0;
}

// ---- list ----------------------------------------------------------

int
runList()
{
    std::cout << "workloads:\n";
    for (const auto &spec : allWorkloads())
        std::cout << "  " << spec.name << "  -- " << spec.description
                  << "\n";
    std::cout << "perf workloads (csched_bench perf):\n";
    for (const auto &spec : perfWorkloads())
        std::cout << "  " << spec.name << "  -- " << spec.description
                  << "\n";
    std::cout << "machines: vliwN, rawN, rawRxC, single\n";
    std::cout << "algorithms:";
    for (const auto &name : knownAlgorithmNames())
        std::cout << " " << name;
    std::cout << "\nonline policies (stream workloads, see "
                 "online/policy.hh):";
    for (const auto &name : knownOnlinePolicyNames())
        std::cout << " " << name;
    std::cout << "\npasses:";
    for (const auto &name : knownPassNames())
        std::cout << " " << name;
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0] == "suite")
        return runSuite(argv[0], {args.begin() + 1, args.end()});
    if (!args.empty() && args[0] == "perf")
        return runPerf(argv[0], {args.begin() + 1, args.end()});
    if (!args.empty() && args[0] == "list")
        return runList();
    if (!args.empty() && args[0] == "--version")
        return printToolVersion("csched_bench");
    if (args.empty() || args[0] == "help")
        usage(argv[0]);
    usage(argv[0], "unknown subcommand '" + args[0] + "'");
}
