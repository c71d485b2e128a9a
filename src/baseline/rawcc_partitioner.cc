#include "baseline/rawcc_partitioner.hh"

#include "baseline/rawcc_clusterer.hh"
#include "baseline/rawcc_merger.hh"
#include "baseline/rawcc_placer.hh"
#include "sched/list_scheduler.hh"
#include "sched/priorities.hh"

namespace csched {

RawccPartitioner::RawccPartitioner(const MachineModel &machine)
    : machine_(machine)
{
}

std::vector<int>
RawccPartitioner::assign(const DependenceGraph &graph) const
{
    // On a degraded machine only alive tiles count, both for the
    // clusterer's communication cost and for the merge budget, since
    // dead tiles can't host work.
    const auto clustered = rawccCluster(graph, machine_.firstHopLatency());
    const auto merged =
        mergeClusters(graph, clustered, machine_.numAliveClusters());
    return placeClusters(graph, machine_, merged);
}

ScheduleResult
RawccPartitioner::run(const DependenceGraph &graph) const
{
    const ListScheduler scheduler(machine_);
    return {scheduler.run(graph, assign(graph),
                          criticalPathPriority(graph)),
            {}};
}

} // namespace csched
