#include "eval/experiment.hh"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "baseline/bug.hh"
#include "baseline/pcc.hh"
#include "baseline/rawcc_partitioner.hh"
#include "baseline/single_cluster_scheduler.hh"
#include "baseline/uas.hh"
#include "convergent/pass_registry.hh"
#include "convergent/sequences.hh"
#include "online/policy.hh"
#include "sched/schedule_checker.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace csched {

ConvergentAlgorithm::ConvergentAlgorithm(const MachineModel &machine)
    : scheduler_(ConvergentScheduler::forMachine(machine))
{
}

ConvergentAlgorithm::ConvergentAlgorithm(const MachineModel &machine,
                                         const std::string &sequence,
                                         PassParams params)
    : scheduler_(machine, sequence, params)
{
}

ScheduleResult
ConvergentAlgorithm::run(const DependenceGraph &graph) const
{
    ConvergentResult full = scheduler_.schedule(graph);
    return {std::move(full.schedule), std::move(full.trace)};
}

std::string
AlgorithmSpec::text() const
{
    return sequence.empty() ? name : name + ":" + sequence;
}

const std::vector<std::string> &
knownAlgorithmNames()
{
    static const std::vector<std::string> names{
        "convergent", "uas", "pcc", "rawcc", "single", "bug"};
    return names;
}

std::optional<AlgorithmSpec>
parseAlgorithmSpec(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &why) -> std::optional<AlgorithmSpec> {
        if (error != nullptr)
            *error = why;
        return std::nullopt;
    };

    const auto colon = text.find(':');
    AlgorithmSpec spec;
    spec.name = trim(text.substr(0, colon));
    std::transform(spec.name.begin(), spec.name.end(),
                   spec.name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (colon != std::string::npos)
        spec.sequence = trim(text.substr(colon + 1));

    // Online policies parse as algorithms so they ride the grid's
    // algorithm axis (and cross the worker pipe) unchanged; the grid
    // runner routes them to the online job path.  tryMakeAlgorithm
    // still rejects them -- they are not offline SchedulingAlgorithms.
    if (isOnlinePolicyName(spec.name)) {
        std::string why;
        if (!parseOnlinePolicy(spec.text(), &why))
            return fail(why);
        return spec;
    }

    const auto &names = knownAlgorithmNames();
    if (std::find(names.begin(), names.end(), spec.name) == names.end())
        return fail("unknown algorithm '" + spec.name + "' (expected " +
                    join(names, "|") + " or an online policy, see "
                    "online/policy.hh)");

    if (!spec.sequence.empty() && spec.name != "convergent")
        return fail("algorithm '" + spec.name +
                    "' does not take a pass sequence");

    if (!spec.sequence.empty()) {
        const auto known = knownPassNames();
        for (const auto &part : split(spec.sequence, ',')) {
            const std::string pass = toUpper(trim(part));
            if (pass.empty())
                return fail("empty pass name in sequence '" +
                            spec.sequence + "'");
            if (std::find(known.begin(), known.end(), pass) ==
                known.end())
                return fail("unknown pass '" + pass + "' (expected " +
                            join(known, "|") + ")");
        }
    }
    return spec;
}

std::unique_ptr<SchedulingAlgorithm>
makeAlgorithm(const AlgorithmSpec &spec, const MachineModel &machine)
{
    auto made = tryMakeAlgorithm(spec, machine);
    if (!made.ok())
        CSCHED_FATAL(made.status().message());
    return std::move(*made);
}

StatusOr<std::unique_ptr<SchedulingAlgorithm>>
tryMakeAlgorithm(const AlgorithmSpec &spec, const MachineModel &machine)
{
    if (spec.name == "convergent") {
        if (spec.sequence.empty() && !spec.params.has_value())
            return std::make_unique<ConvergentAlgorithm>(machine);
        const bool is_raw = machine.commStyle() == CommStyle::Network;
        const std::string sequence =
            spec.sequence.empty()
                ? (is_raw ? rawPassSequence() : vliwPassSequence())
                : spec.sequence;
        const PassParams params = spec.params.value_or(
            is_raw ? rawPassParams() : vliwPassParams());
        return std::make_unique<ConvergentAlgorithm>(machine, sequence,
                                                     params);
    }
    if (spec.name == "uas")
        return std::make_unique<UasScheduler>(machine);
    if (spec.name == "pcc")
        return std::make_unique<PccScheduler>(machine);
    if (spec.name == "rawcc")
        return std::make_unique<RawccPartitioner>(machine);
    if (spec.name == "single")
        return std::make_unique<SingleClusterScheduler>(machine);
    if (spec.name == "bug")
        return std::make_unique<BugScheduler>(machine);
    return Status::invalidSpec(
        "unknown algorithm '" + spec.name +
        "' (specs must come from parseAlgorithmSpec)");
}

RunResult
runAndCheck(const SchedulingAlgorithm &algorithm,
            const DependenceGraph &graph, const MachineModel &machine)
{
    auto run = tryRunAndCheck(algorithm, graph, machine);
    if (!run.ok())
        CSCHED_FATAL(run.status().message());
    return std::move(*run);
}

void
remapPreplacedForMachine(DependenceGraph &graph,
                         const MachineModel &machine)
{
    if (!machine.degraded())
        return;
    std::vector<int> remap(machine.numClusters());
    for (int c = 0; c < machine.numClusters(); ++c)
        remap[c] = machine.remapToAlive(c);
    graph.remapPreplacedHomes(remap);
}

StatusOr<RunResult>
tryRunAndCheck(const SchedulingAlgorithm &algorithm,
               const DependenceGraph &graph, const MachineModel &machine)
{
    // Pre-flight on degraded machines: a preplaced home on a dead
    // cluster means the graph was never re-homed for this machine
    // (remapPreplacedForMachine); no algorithm can satisfy both the
    // preplacement and the dead-cluster checker rules, so fail
    // structurally instead of letting a scheduler trip an invariant.
    if (machine.degraded()) {
        for (const auto &instr : graph.instructions()) {
            if (instr.preplaced() &&
                !machine.clusterAlive(instr.homeCluster)) {
                return Status::invalidSpec(
                    "preplaced instruction " + std::to_string(instr.id) +
                    " is homed on dead cluster " +
                    std::to_string(instr.homeCluster) +
                    " (re-home the graph with "
                    "remapPreplacedForMachine)");
            }
        }
    }

    const auto begin = std::chrono::steady_clock::now();
    ScheduleResult produced = algorithm.run(graph);
    const auto end = std::chrono::steady_clock::now();

    checkpoint("checker.verify");
    const auto check = checkSchedule(graph, machine, produced.schedule);
    if (!check.ok()) {
        return Status::checkFailed(algorithm.name() +
                                   " produced an illegal schedule: " +
                                   check.message());
    }

    return RunResult{
        algorithm.name(), graph.numInstructions(),
        produced.schedule.makespan(),
        std::chrono::duration<double>(end - begin).count(),
        std::move(produced)};
}

} // namespace csched
