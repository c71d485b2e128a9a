#include "online/online_grid.hh"

#include <chrono>

#include "eval/online_metrics.hh"
#include "machine/machine_spec.hh"
#include "online/online_scheduler.hh"

namespace csched {

bool
isOnlineJobSpec(const JobSpec &spec)
{
    return isStreamWorkload(spec.workload) ||
           isOnlinePolicyName(spec.algorithm.name);
}

Status
runOnlineJobAttempt(const JobSpec &spec, JobResult &out)
{
    // Both sides must be online: a stream needs a policy that commits
    // over time, and a policy needs arrivals to react to.
    if (!isStreamWorkload(spec.workload))
        return Status::invalidSpec(
            "online policy '" + spec.algorithm.text() +
            "' requires a stream workload (stream:...), got '" +
            spec.workload + "'");
    if (!isOnlinePolicyName(spec.algorithm.name))
        return Status::invalidSpec(
            "stream workload '" + spec.workload +
            "' requires an online policy (" +
            "online-convergent|online-sp|online-list|online-uas|"
            "online-pcc), got '" + spec.algorithm.text() + "'");

    std::string error;
    const auto machine = parseMachineSpec(spec.machine, &error);
    if (machine == nullptr)
        return Status::invalidSpec(error);

    const auto stream = parseStreamSpec(spec.workload, &error);
    if (!stream.has_value())
        return Status::invalidSpec(error);

    const auto policy = parseOnlinePolicy(spec.algorithm.text(), &error);
    if (!policy.has_value())
        return Status::invalidSpec(error);

    auto arrivals = generateArrivals(*stream);
    if (!arrivals.ok())
        return arrivals.status();

    // An armed degradation event needs the post-event machine: the
    // same spec with the degrade-tiles also dead.  Building it here
    // (from the job's own spec text) keeps the event byte-identical
    // across workers and hosts.
    std::unique_ptr<MachineModel> degraded;
    if (policy->degradeAt >= 0) {
        auto built =
            tryParseMachineSpec(spec.machine, policy->degradeTiles);
        if (!built.ok())
            return built.status().withContext(
                "building the post-degrade machine for '" +
                spec.machine + "'");
        degraded = std::move(*built);
    }

    const auto begin = std::chrono::steady_clock::now();
    auto run = runOnline(*machine, *policy, *arrivals, degraded.get());
    const auto end = std::chrono::steady_clock::now();
    if (!run.ok())
        return run.status();

    const OnlineMetrics metrics = computeOnlineMetrics(run->commits);
    out.algorithmName = policy->name;
    out.instructions = metrics.instructions;
    out.makespan = metrics.makespan;
    out.criticalPathLength = metrics.maxCriticalPathLength;
    out.assignment.clear();
    out.assignment.reserve(run->commits.size());
    for (const OnlineCommit &commit : run->commits)
        out.assignment.push_back(commit.regionId);
    out.regions = metrics.regions;
    out.weightedCompletion = metrics.weightedCompletion;
    out.maxFlowTime = metrics.maxFlowTime;
    out.meanFlowTime = metrics.meanFlowTime;
    out.deadlineMisses = metrics.deadlineMisses;
    out.preemptions = run->preemptions;
    out.fallbackDecisions = run->fallbackDecisions;
    out.seconds =
        std::chrono::duration<double>(end - begin).count();
    return Status();
}

} // namespace csched
