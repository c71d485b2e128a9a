/**
 * @file
 * Workload `convergent-regions`: one thread, in process.  Seeded
 * random layered DAGs in two shapes that use the preference matrix
 * differently, scheduled by the convergent scheduler and checked:
 *
 *   wide   10k instrs, width 64, on vliw4 (many rows, short time axis)
 *   narrow  2k instrs, width 4,  on raw4  (few rows, long time axis)
 *
 * These are the parameters of synth-wide-10k and synth-narrow-2k with
 * the DAG seeds drawn from the workload seed.  The traced run replays
 * every region through TracedConvergent and requires the replica to
 * reproduce the untraced assignment and makespan.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convergent/convergent_scheduler.hh"
#include "eval/experiment.hh"
#include "machine/machine_spec.hh"
#include "sched/schedule_checker.hh"
#include "traced_convergent.hh"
#include "workloads.hh"
#include "workloads/random_dag.hh"

namespace perfbench {

using namespace csched;

namespace {

/** Region pairs (one wide, one narrow) in the seeded set. */
constexpr int kPairs = 2;

/** Coverage band outside which the replica counts as stale. */
constexpr double kCoverageLo = 0.85;
constexpr double kCoverageHi = 1.15;

struct Shape
{
    const char *name;
    const char *machine;
    int instrs;
    int width;
    double memFraction;
    double floatFraction;
};

constexpr Shape kShapes[] = {
    {"wide", "vliw4", 10000, 64, 0.20, 0.6},
    {"narrow", "raw4", 2000, 4, 0.05, 0.9},
};

struct Region
{
    int shape = 0;
    DependenceGraph graph;
};

struct State
{
    std::unique_ptr<MachineModel> machines[2];
    std::unique_ptr<ConvergentAlgorithm> algorithms[2];
    std::vector<Region> regions;
    double graphBuildSeconds = 0.0;
    double machineSeconds = 0.0;
};

DependenceGraph
makeRegion(const Shape &shape, int clusters, uint64_t seed)
{
    RandomDagOptions options;
    options.numInstructions = shape.instrs;
    options.width = shape.width;
    options.memFraction = shape.memFraction;
    options.floatFraction = shape.floatFraction;
    options.banks = clusters;
    options.preplaceClusters = clusters;
    options.seed = seed;
    return makeRandomDag(options);
}

State
setUp(const Options &opts)
{
    State s;
    for (int k = 0; k < 2; ++k) {
        const auto begin = Clock::now();
        auto machine = tryParseMachineSpec(kShapes[k].machine);
        s.machineSeconds += secondsBetween(begin, Clock::now());
        if (!machine.ok())
            throw StatusError(machine.status());
        s.machines[k] = std::move(*machine);
        s.algorithms[k] =
            std::make_unique<ConvergentAlgorithm>(*s.machines[k]);
    }
    const auto begin = Clock::now();
    for (int pair = 0; pair < kPairs; ++pair) {
        for (int k = 0; k < 2; ++k) {
            const uint64_t seed = subSeed(opts.seed, 2 * pair + k);
            s.regions.push_back(
                {k, makeRegion(kShapes[k], s.machines[k]->numClusters(),
                               seed)});
        }
    }
    s.graphBuildSeconds = secondsBetween(begin, Clock::now());
    // Warm-up: one small region per shape faults in code and the
    // allocator before anything is timed.
    for (int k = 0; k < 2; ++k) {
        Shape small = kShapes[k];
        small.instrs = 300;
        const auto graph = makeRegion(
            small, s.machines[k]->numClusters(), subSeed(opts.seed, 99));
        (void)s.algorithms[k]->run(graph);
    }
    return s;
}

/** Check one schedule; returns an empty string when it is sound. */
std::string
verify(const DependenceGraph &graph, const MachineModel &machine,
       const Schedule &schedule)
{
    const auto check = checkSchedule(graph, machine, schedule);
    if (!check.ok())
        return "checker: " + check.message().substr(0, 200);
    if (schedule.makespan() < graph.criticalPathLength())
        return "makespan " + std::to_string(schedule.makespan()) +
               " below critical path " +
               std::to_string(graph.criticalPathLength());
    return "";
}

void
runUntraced(const Options &opts, const State &s, RunResult *out)
{
    OpLedger ledger;
    double timed_seconds = 0.0;
    // Latency is per wide + narrow pair: the two shapes differ about
    // 2x in cost, so a per-region median would sit on the step between
    // them and read the slowest narrow region.
    std::vector<double> pair_ms;
    double pair_seconds = 0.0;
    bool pair_ok = true;
    const auto start = Clock::now();
    do {
        for (const auto &region : s.regions) {
            const MachineModel &machine = *s.machines[region.shape];
            const auto begin = Clock::now();
            const auto result =
                s.algorithms[region.shape]->run(region.graph);
            const std::string error =
                verify(region.graph, machine, result.schedule);
            const double seconds = secondsBetween(begin, Clock::now());
            ++out->attempted;
            timed_seconds += seconds;
            pair_seconds += seconds;
            if (error.empty()) {
                ledger.ok(seconds * 1e3, region.graph.numInstructions(),
                          result.schedule.makespan(),
                          region.graph.criticalPathLength());
            } else {
                out->fail(std::string(kShapes[region.shape].name) +
                          ": " + error);
                pair_ok = false;
            }
            if (region.shape == 1) {  // a pair ends with its narrow region
                pair_ms.push_back(
                    pair_ok ? pair_seconds * 1e3
                            : std::numeric_limits<double>::infinity());
                pair_seconds = 0.0;
                pair_ok = true;
            }
        }
    } while (secondsBetween(start, Clock::now()) < opts.seconds);
    ledger.latencyMs = pair_ms;
    ledger.report(out);
    out->set("goodput_rps", ledger.okOps / timed_seconds);
}

/** Per-shape accumulators of the traced run, in nanoseconds. */
struct ShapeTrace
{
    ConvergentPhases phases;
    int64_t checkNs = 0;
    int64_t untracedNs = 0;
    int64_t tracedNs = 0;
    long instrs = 0;
    double matrixBytes = 0.0;
    double windowFill = 0.0;
    int regions = 0;
};

void
addPhases(ConvergentPhases *into, const ConvergentPhases &from)
{
    into->matrixCtor += from.matrixCtor;
    into->snapshot += from.snapshot;
    into->guard += from.guard;
    into->prefDiff += from.prefDiff;
    into->extract += from.extract;
    into->listSched += from.listSched;
    for (const auto &[name, ns] : from.pass)
        into->pass[name] += ns;
}

void
runTraced(const Options &opts, const State &s, RunResult *out)
{
    const TracedConvergent replicas[2] = {
        TracedConvergent(*s.machines[0]),
        TracedConvergent(*s.machines[1])};
    const ConvergentScheduler schedulers[2] = {
        ConvergentScheduler::forMachine(*s.machines[0]),
        ConvergentScheduler::forMachine(*s.machines[1])};
    ShapeTrace shapes[2];
    int skipped = 0;
    int cycles = 0;
    const auto ns = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count();
    };
    const auto start = Clock::now();
    do {
        ++cycles;
        for (const auto &region : s.regions) {
            const MachineModel &machine = *s.machines[region.shape];
            ShapeTrace &st = shapes[region.shape];
            const char *shape = kShapes[region.shape].name;
            ++out->attempted;

            const auto t0 = Clock::now();
            const ConvergentResult plain =
                schedulers[region.shape].schedule(region.graph);
            const auto t1 = Clock::now();
            const std::string error =
                verify(region.graph, machine, plain.schedule);
            const auto t2 = Clock::now();
            const TracedRun traced =
                replicas[region.shape].run(region.graph);

            st.untracedNs += ns(t0, t1);
            st.checkNs += ns(t1, t2);
            st.tracedNs += traced.wallNs;
            st.instrs += region.graph.numInstructions();
            addPhases(&st.phases, traced.phases);
            st.matrixBytes = std::max(st.matrixBytes, traced.matrixBytes);
            st.windowFill += traced.windowFill;
            ++st.regions;
            skipped += traced.skippedPasses;

            if (!error.empty()) {
                out->fail(std::string(shape) + ": " + error);
                continue;
            }
            if (traced.assignment != plain.assignment ||
                traced.schedule.makespan() != plain.schedule.makespan()) {
                out->fail(std::string(shape) +
                          ": traced replica diverged from schedule() "
                          "(stale trace)");
                continue;
            }
            if (traced.phases.engineTotal() + traced.phases.listSched !=
                traced.wallNs) {
                out->fail(std::string(shape) +
                          ": traced phases do not sum to the total");
            }
        }
    } while (secondsBetween(start, Clock::now()) < opts.seconds);

    // Seconds per cycle of the seeded region set; a shape's split is
    // its share of the cycle, so total = wide + narrow.
    const auto per_cycle = [cycles](double total_ns) {
        return total_ns / 1e9 / cycles;
    };
    const auto set_split = [&](const std::string &name, auto get) {
        double total = 0.0;
        for (int k = 0; k < 2; ++k) {
            const double v = per_cycle(get(shapes[k]));
            out->set(name + "." + kShapes[k].name, v);
            total += v;
        }
        out->set(name, total);
    };
    set_split("convergent.matrix_ctor_s",
              [](const ShapeTrace &t) { return t.phases.matrixCtor; });
    set_split("convergent.snapshot_s",
              [](const ShapeTrace &t) { return t.phases.snapshot; });
    set_split("convergent.guard_s",
              [](const ShapeTrace &t) { return t.phases.guard; });
    set_split("convergent.pref_diff_s",
              [](const ShapeTrace &t) { return t.phases.prefDiff; });
    set_split("convergent.extract_s",
              [](const ShapeTrace &t) { return t.phases.extract; });
    set_split("convergent.pass_s",
              [](const ShapeTrace &t) { return t.phases.passTotal(); });
    set_split("convergent.traced_total_s",
              [](const ShapeTrace &t) { return t.phases.engineTotal(); });

    // Per-pass bodies: a shape reports only the passes its Table-1
    // sequence runs.
    std::map<std::string, double> pass_total;
    for (int k = 0; k < 2; ++k) {
        for (const auto &name : replicas[k].passNames()) {
            const double v = per_cycle(shapes[k].phases.pass[name]);
            out->set("convergent.pass." + name + "_s." + kShapes[k].name,
                     v);
            pass_total[name] += v;
        }
    }
    for (const auto &[name, v] : pass_total)
        out->set("convergent.pass." + name + "_s", v);

    double untraced_ns = 0.0, traced_ns = 0.0, check_ns = 0.0,
           list_ns = 0.0, fill = 0.0, bytes = 0.0;
    long instrs = 0;
    int regions = 0;
    for (int k = 0; k < 2; ++k) {
        const ShapeTrace &st = shapes[k];
        untraced_ns += st.untracedNs;
        traced_ns += st.tracedNs;
        check_ns += st.checkNs;
        list_ns += st.phases.listSched;
        instrs += st.instrs;
        fill += st.windowFill;
        regions += st.regions;
        bytes = std::max(bytes, st.matrixBytes);
        out->set(std::string("convergent.matrix_bytes.") + kShapes[k].name,
                 st.matrixBytes);
        out->set(std::string("convergent.window_fill.") + kShapes[k].name,
                 st.windowFill / st.regions);
    }
    out->set("convergent.matrix_bytes", bytes);
    out->set("convergent.window_fill", fill / regions);
    out->set("convergent.skipped_passes", skipped);
    out->set("convergent.schedule_s", per_cycle(untraced_ns));
    out->set("sched.list_s", per_cycle(list_ns));
    out->set("sched.check_s", per_cycle(check_ns));

    const double coverage = traced_ns / untraced_ns;
    out->set("trace.coverage", coverage);
    out->set("trace.stale",
             coverage < kCoverageLo || coverage > kCoverageHi ? 1 : 0);
    const double untraced_rate = instrs / ((untraced_ns + check_ns) / 1e9);
    const double traced_rate = instrs / ((traced_ns + check_ns) / 1e9);
    out->set("trace.overhead_instr_per_s", untraced_rate - traced_rate);
}

} // namespace

RunResult
runConvergentRegions(const Options &opts)
{
    RunResult out;
    const State s =
        repeatSetup<State>(&out, [&] { return setUp(opts); });
    out.set("ir.graph_build_s", s.graphBuildSeconds);
    out.set("machine.construct_s", s.machineSeconds);
    if (opts.trace)
        runTraced(opts, s, &out);
    else
        runUntraced(opts, s, &out);
    return out;
}

} // namespace perfbench
