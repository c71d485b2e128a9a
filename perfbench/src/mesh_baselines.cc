/**
 * @file
 * Workload `mesh-baselines`: one thread, in process.  The baselines,
 * mesh routing and 256-1024-cluster list scheduling do the work; the
 * convergent engine does little.  Graphs are built with 16 banks (as
 * BENCH_mesh does) and preplacement spread over the whole mesh:
 *
 *   UAS and RawCC  on mxm, tomcatv, fpppp-kernel  at raw16x16 and
 *                  raw32x32, and each kernel once more on its own
 *                  raw32x32/faults=seed:<fixed>,tiles:10%,links:3%
 *   PCC            on mxm, tomcatv                at raw16x16
 *   convergent     on mxm, tomcatv, fpppp-kernel  at raw8x8
 *
 * PCC on fpppp-kernel is left out: it takes seconds per mesh and would
 * swamp the workload.  The workload seed shuffles the operation order.
 */

#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.hh"
#include "machine/machine_spec.hh"
#include "sched/schedule_checker.hh"
#include "support/rng.hh"
#include "traced_convergent.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using namespace csched;

namespace {

const char *const kKernels[] = {"mxm", "tomcatv", "fpppp-kernel"};
constexpr uint64_t kFaultSeed = 1;

struct Op
{
    std::string algorithm;
    int graph = 0;  ///< index into State::graphs
    std::unique_ptr<SchedulingAlgorithm> scheduler;
};

struct Graph
{
    int machine = 0;  ///< index into State::machines
    std::string kernel;
    DependenceGraph graph;
};

struct State
{
    std::vector<std::unique_ptr<MachineModel>> machines;
    std::vector<Graph> graphs;
    std::vector<Op> ops;
    double graphBuildSeconds = 0.0;
    double machineSeconds = 0.0;
};

State
setUp(const Options &opts)
{
    struct Plan
    {
        std::string machine;
        std::vector<std::string> algorithms;
        std::vector<std::string> kernels;
    };
    const std::vector<std::string> all(std::begin(kKernels),
                                       std::end(kKernels));
    std::vector<Plan> plans = {
        {"raw16x16", {"uas", "rawcc"}, all},
        {"raw16x16", {"pcc"}, {"mxm", "tomcatv"}},
        {"raw32x32", {"uas", "rawcc"}, all},
        {"raw8x8", {"convergent"}, all},
    };
    // Each kernel gets its own fault map.  The maps are fixed, not
    // drawn from the workload seed: one map can slow UAS twice as much
    // as another, which swung the workload by 25% between seeds.
    for (int k = 0; k < 3; ++k)
        plans.push_back({faultySpec("raw32x32", "tiles:10%,links:3%",
                                    kFaultSeed, k),
                         {"uas", "rawcc"},
                         {kKernels[k]}});

    State s;
    std::vector<std::string> specs;
    for (const auto &plan : plans) {
        int m = 0;
        while (m < static_cast<int>(specs.size()) && specs[m] != plan.machine)
            ++m;
        if (m == static_cast<int>(specs.size())) {
            const auto begin = Clock::now();
            auto machine = tryParseMachineSpec(plan.machine);
            s.machineSeconds += secondsBetween(begin, Clock::now());
            if (!machine.ok())
                throw StatusError(machine.status());
            s.machines.push_back(std::move(*machine));
            specs.push_back(plan.machine);
        }
        const MachineModel &machine = *s.machines[m];
        for (const auto &kernel : plan.kernels) {
            int g = 0;
            while (g < static_cast<int>(s.graphs.size()) &&
                   !(s.graphs[g].machine == m && s.graphs[g].kernel == kernel))
                ++g;
            if (g == static_cast<int>(s.graphs.size())) {
                const auto begin = Clock::now();
                DependenceGraph graph =
                    findWorkload(kernel).build(16, machine.numClusters());
                remapPreplacedForMachine(graph, machine);
                s.graphBuildSeconds += secondsBetween(begin, Clock::now());
                s.graphs.push_back({m, kernel, std::move(graph)});
            }
            for (const auto &name : plan.algorithms) {
                AlgorithmSpec spec;
                spec.name = name;
                auto made = tryMakeAlgorithm(spec, machine);
                if (!made.ok())
                    throw StatusError(made.status());
                s.ops.push_back({name, g, std::move(*made)});
            }
        }
    }
    // The workload seed orders the operations.
    Rng rng(subSeed(opts.seed, 5));
    for (int i = static_cast<int>(s.ops.size()) - 1; i > 0; --i)
        std::swap(s.ops[i], s.ops[rng.range(i + 1)]);
    return s;
}

} // namespace

RunResult
runMeshBaselines(const Options &opts)
{
    RunResult out;
    const State s =
        repeatSetup<State>(&out, [&] { return setUp(opts); });
    out.set("ir.graph_build_s", s.graphBuildSeconds);
    out.set("machine.construct_s", s.machineSeconds);

    OpLedger ledger;
    double timed_seconds = 0.0;
    std::vector<double> cycle_ms;
    std::map<std::string, double> algorithm_seconds;
    double check_seconds = 0.0;
    double list_seconds = 0.0;
    int cycles = 0;
    const auto start = Clock::now();
    do {
        ++cycles;
        const double cycle_start = timed_seconds;
        bool cycle_ok = true;
        for (const auto &op : s.ops) {
            const Graph &g = s.graphs[op.graph];
            const MachineModel &machine = *s.machines[g.machine];
            const std::string key =
                op.algorithm + "/" + g.kernel + "/" + machine.name();
            ++out.attempted;

            const auto t0 = Clock::now();
            const ScheduleResult result = op.scheduler->run(g.graph);
            const auto t1 = Clock::now();
            const auto check = checkSchedule(g.graph, machine,
                                             result.schedule);
            const auto t2 = Clock::now();
            const double seconds = secondsBetween(t0, t2);
            timed_seconds += seconds;
            algorithm_seconds[op.algorithm] += secondsBetween(t0, t1);
            check_seconds += secondsBetween(t1, t2);

            const int makespan = result.schedule.makespan();
            const int cpl = g.graph.criticalPathLength();
            if (!check.ok()) {
                out.fail(key + ": checker: " +
                         check.message().substr(0, 200));
                cycle_ok = false;
                continue;
            }
            if (makespan < cpl) {
                out.fail(key + ": makespan below critical path");
                cycle_ok = false;
                continue;
            }
            if (opts.trace && op.algorithm == "convergent") {
                // The replica's list-scheduling phase is the sched
                // layer's share under a convergent assignment.
                const TracedRun traced =
                    TracedConvergent(machine).run(g.graph);
                list_seconds += traced.phases.listSched / 1e9;
                if (traced.schedule.makespan() != makespan)
                    out.fail(key + ": traced replica diverged");
            }
            ledger.ok(seconds * 1e3, g.graph.numInstructions(), makespan,
                      cpl);
        }
        cycle_ms.push_back(cycle_ok ? (timed_seconds - cycle_start) * 1e3
                                    : std::numeric_limits<double>::infinity());
    } while (secondsBetween(start, Clock::now()) < opts.seconds);

    // The operations differ in cost by three orders of magnitude, so a
    // percentile over them lands on whichever operation noise puts at
    // that rank.  Latency here is one cycle: scheduling the whole set.
    ledger.latencyMs = cycle_ms;
    ledger.report(&out);
    out.set("goodput_rps", ledger.okOps / timed_seconds);
    // Layer seconds are per cycle of the fixed operation set.
    out.set("baseline.uas_s", algorithm_seconds["uas"] / cycles);
    out.set("baseline.pcc_s", algorithm_seconds["pcc"] / cycles);
    out.set("baseline.rawcc_s", algorithm_seconds["rawcc"] / cycles);
    out.set("convergent.schedule_s",
            algorithm_seconds["convergent"] / cycles);
    out.set("sched.check_s", check_seconds / cycles);
    out.set("sched.list_s", list_seconds / cycles);
    return out;
}

} // namespace perfbench
