/**
 * @file
 * Workload `fleet-grid`: repeated runGrid calls over every paper kernel
 * x {vliw4, raw4, raw4x4/faults=...,tiles:10%} x {uas, convergent} (78
 * jobs), executed by two localhost csched_workerd daemons with two
 * workers each, from one grid thread.  It measures the dist
 * module (remote pool, protocol, workerd) and the grid runner in
 * batches, where serve-stream measures the same worker pool per
 * arrival.  Every job's result is checked against an in-process runJob
 * of the same spec made before set-up.
 *
 * The grid does not depend on the workload seed.  A grid's wall time
 * is set by where its long jobs land and by how hard its fault map is,
 * and seeding either swung the workload by 20% between seeds.  Each
 * call also sets up and tears down a remote pool, so the grid is kept
 * large enough for the jobs to dominate that.  On a shared 4-core host
 * every job run at once measures the host's scheduler as much as the
 * fleet: with four grid threads (every slot busy) throughput swung 2.5x
 * between runs, and with two its IQR over ten runs still reached 33%.
 * One grid thread keeps one job in flight, dispatched through the
 * remote pool and the protocol to either daemon, and its spread is
 * that of an in-process workload.
 */

#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "daemon.hh"
#include "runner/grid_runner.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using namespace csched;

namespace {

constexpr int kDaemons = 2;
constexpr int kWorkersPerDaemon = 2;
constexpr int kGridThreads = 1;  // see the file comment
constexpr uint64_t kFaultSeed = 1;

/** The fleet, rebuilt by every set-up. */
struct State
{
    std::vector<std::string> hosts;
    std::vector<std::unique_ptr<Daemon>> daemons;
};

GridSpec
makeGrid()
{
    GridSpec grid;
    for (const auto &spec : allWorkloads())
        grid.workloads.push_back(spec.name);
    grid.machines = {"vliw4", "raw4",
                     faultySpec("raw4x4", "tiles:10%", kFaultSeed, 0)};
    for (const char *name : {"uas", "convergent"}) {
        AlgorithmSpec spec;
        spec.name = name;
        grid.algorithms.push_back(spec);
    }
    grid.jobs = kGridThreads;
    grid.computeSpeedup = false;
    std::string error;
    if (!validateGrid(grid, &error))
        throw std::runtime_error("invalid grid: " + error);
    return grid;
}

/** The port a workerd wrote to @p path, or 0 while it has not. */
int
readPort(const std::string &path)
{
    std::ifstream in(path);
    int port = 0;
    if (!(in >> port))
        return 0;
    return port;
}

/** Two daemons, and one small grid through them as a warm-up. */
State
setUp(const Options &opts, const GridSpec &like)
{
    State s;
    for (int d = 0; d < kDaemons; ++d) {
        const std::string port_file = opts.runDir + "/workerd-" +
                                      std::to_string(getpid()) + "-" +
                                      std::to_string(d) + ".port";
        unlink(port_file.c_str());
        s.daemons.push_back(std::make_unique<Daemon>(std::vector<std::string>{
            opts.binDir + "/csched_workerd", "--port", "0", "--port-file",
            port_file, "--workers", std::to_string(kWorkersPerDaemon)}));
        if (!waitUntil([&] { return readPort(port_file) > 0; }, 10000))
            throw std::runtime_error("csched_workerd did not report a port");
        s.hosts.push_back("127.0.0.1:" + std::to_string(readPort(port_file)));
        unlink(port_file.c_str());
    }

    GridSpec warm = like;
    warm.hosts = s.hosts;
    warm.workloads = {"vvmul"};
    warm.machines = {"vliw2"};
    if (!runGrid(warm).allOk())
        throw std::runtime_error("fleet warm-up grid failed");
    return s;
}

} // namespace

RunResult
runFleetGrid(const Options &opts)
{
    RunResult out;
    GridSpec grid = makeGrid();
    // The oracle runs once, outside setup_s: it is the benchmark's
    // checking apparatus, not set-up the fleet needs.
    std::vector<JobResult> reference;  // in expandGrid order
    for (const JobSpec &job : expandGrid(grid)) {
        reference.push_back(runJob(job));
        if (!reference.back().ok())
            throw std::runtime_error("reference run failed: " + jobKey(job));
    }
    const State s =
        repeatSetup<State>(&out, [&] { return setUp(opts, grid); });
    grid.hosts = s.hosts;
    const int slots = kDaemons * kWorkersPerDaemon;

    OpLedger ledger;
    std::vector<double> walls, execs, busy;
    long ok_jobs = 0;
    long extra_attempts = 0;
    const auto start = Clock::now();
    do {
        const auto begin = Clock::now();
        const GridReport report = runGrid(grid);
        const double wall = secondsBetween(begin, Clock::now());

        long grid_instrs = 0;
        long grid_ok = 0;
        double exec = 0.0;
        for (size_t j = 0; j < reference.size(); ++j) {
            const JobResult &ref = reference[j];
            const std::string key =
                ref.workload + "/" + ref.machine + "/" + ref.algorithm;
            ++out.attempted;
            if (j >= report.results.size()) {
                out.fail(key + ": result missing");
                continue;
            }
            const JobResult &got = report.results[j];
            extra_attempts += got.attempts - 1;
            exec += got.seconds;
            if (!got.ok()) {
                out.fail(key + ": " + jobOutcomeName(got.outcome) +
                         " " + got.diagnostic);
                continue;
            }
            if (got.makespan != ref.makespan ||
                got.instructions != ref.instructions) {
                out.fail(key + ": makespan " +
                         std::to_string(got.makespan) +
                         " != in-process " +
                         std::to_string(ref.makespan));
                continue;
            }
            if (got.makespan < ref.criticalPathLength) {
                out.fail(key + ": makespan below critical path");
                continue;
            }
            grid_instrs += got.instructions;
            ++grid_ok;
            ledger.cplRatios.push_back(
                static_cast<double>(got.makespan) /
                ref.criticalPathLength);
        }
        // A grid is the user-visible operation: its latency is its
        // wall time.
        if (grid_ok == static_cast<long>(reference.size())) {
            ledger.latencyMs.push_back(wall * 1e3);
            ledger.instrRates.push_back(grid_instrs / wall);
        } else {
            ledger.failed();
        }
        ok_jobs += grid_ok;
        walls.push_back(wall);
        execs.push_back(exec);
        busy.push_back(exec / (wall * slots));
    } while (secondsBetween(start, Clock::now()) < opts.seconds);

    ledger.report(&out);
    out.set("goodput_rps", ok_jobs / secondsBetween(start, Clock::now()));
    out.set("runner.grid_wall_s", csched::median(walls));
    out.set("runner.exec_s", csched::median(execs));
    out.set("dist.slot_busy_ratio", csched::median(busy));
    out.set("runner.extra_attempts", extra_attempts);
    return out;
}

} // namespace perfbench
