#include "machine/machine.hh"

#include "support/logging.hh"

namespace csched {

bool
MachineModel::canExecute(int cluster, Opcode op) const
{
    if (!clusterAlive(cluster))
        return false;
    for (FuKind fu : clusterFus(cluster))
        if (fuCanExecute(fu, op))
            return true;
    return false;
}

int
MachineModel::firstAliveCluster() const
{
    for (int c = 0; c < numClusters(); ++c)
        if (clusterAlive(c))
            return c;
    CSCHED_PANIC("machine has no alive cluster");
}

int
MachineModel::firstHopLatency() const
{
    const int first = firstAliveCluster();
    for (int c = first + 1; c < numClusters(); ++c)
        if (clusterAlive(c))
            return commLatency(first, c);
    return 1;
}

} // namespace csched
