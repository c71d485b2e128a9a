/**
 * @file
 * Abstract machine model for spatial architectures.
 *
 * A machine is a set of clusters (VLIW clusters or Raw tiles), each
 * holding functional units and a slice of the interleaved memory
 * system.  The scheduler interrogates the model for FU capabilities,
 * communication latencies, and memory-bank locality; the concrete
 * subclasses add the topology details the list scheduler needs to
 * reserve communication resources (transfer units, receive slots, or
 * network links).
 */

#ifndef CSCHED_MACHINE_MACHINE_HH
#define CSCHED_MACHINE_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "ir/opcode.hh"

namespace csched {

/** How operand values cross clusters on this machine. */
enum class CommStyle {
    /**
     * A Copy op occupies a Transfer FU on the *source* cluster for one
     * cycle; the value lands in the destination register file
     * commLatency() cycles later (the clustered VLIW of the paper).
     */
    TransferUnit,
    /**
     * A Recv op occupies a regular FU on the *destination* cluster;
     * the value is usable once the receive completes (the abstract
     * three-cluster machine of the paper's Figure 1).
     */
    ReceiveOp,
    /**
     * The value is injected into a point-to-point network whose
     * per-hop links must be reserved; no FU slots are consumed
     * (Raw's register-mapped static network).
     */
    Network,
};

/** Base class for the spatial machine models. */
class MachineModel
{
  public:
    virtual ~MachineModel() = default;

    /** Short identifier used in tables, e.g. "vliw4" or "raw4x4". */
    virtual std::string name() const = 0;

    /** Number of clusters (VLIW clusters or Raw tiles). */
    virtual int numClusters() const = 0;

    /** Functional units of cluster @p cluster. */
    virtual const std::vector<FuKind> &clusterFus(int cluster) const = 0;

    /**
     * Cycles between a producer's finish on @p from and the value's
     * availability on @p to, assuming no resource contention.  Zero
     * when from == to.
     */
    virtual int commLatency(int from, int to) const = 0;

    /** How values cross clusters (selects the scheduler's comm path). */
    virtual CommStyle commStyle() const = 0;

    // ---- Fault surface (see machine/fault_map.hh) -------------------
    //
    // A degraded machine is a first-class schedulable platform: dead
    // clusters stay addressable (indices are stable) but report
    // clusterAlive() == false and canExecute() == false, so every
    // placement loop skips them; slowed clusters stretch FU latencies
    // by latencyFactor().  Pristine machines use the defaults below.

    /** True when @p cluster is usable (not marked dead). */
    virtual bool clusterAlive(int cluster) const
    {
        (void)cluster;
        return true;
    }

    /** Number of alive clusters (== numClusters() when pristine). */
    virtual int numAliveClusters() const { return numClusters(); }

    /**
     * Deterministic dead->alive cluster remap: identity for alive
     * clusters; a dead cluster maps to a fixed alive one.  Used to
     * re-home preplaced instructions and memory banks on degraded
     * machines (see remapPreplacedForMachine in eval/experiment.hh).
     */
    virtual int remapToAlive(int cluster) const { return cluster; }

    /** FU-latency multiplier of @p cluster (1 = full speed). */
    virtual int latencyFactor(int cluster) const
    {
        (void)cluster;
        return 1;
    }

    /** @p latency cycles stretched by the cluster's latency factor. */
    int execLatency(int cluster, int latency) const
    {
        return latency * latencyFactor(cluster);
    }

    /** True when any cluster of the machine is dead. */
    bool degraded() const { return numAliveClusters() != numClusters(); }

    /** Smallest alive cluster id. */
    int firstAliveCluster() const;

    /**
     * commLatency() from the smallest alive cluster to the next alive
     * one, or 1 when only one is alive: the fixed cross-cluster cost
     * of the PCC and Rawcc estimators (dead clusters never host work,
     * so they must not price it).
     */
    int firstHopLatency() const;

    /**
     * Cluster owning memory bank @p bank (banks interleave); on a
     * degraded machine, banks homed on dead clusters move to that
     * cluster's remap target so analysed references stay local.
     */
    int homeOfBank(int bank) const
    {
        return remapToAlive(bank % numClusters());
    }

    /**
     * Additional access latency for a memory operation touching
     * @p bank when executed on @p cluster (0 when local).
     */
    virtual int memoryPenalty(int bank, int cluster) const = 0;

    /** Architected registers per cluster (for pressure accounting). */
    virtual int registersPerCluster() const { return 32; }

    /**
     * A one-cluster machine of the same family, used to compute the
     * paper's speedup-vs-one-cluster normalisation.
     */
    virtual std::unique_ptr<MachineModel> makeSingleCluster() const = 0;

    /** True when some FU of @p cluster can issue @p op. */
    bool canExecute(int cluster, Opcode op) const;
};

} // namespace csched

#endif // CSCHED_MACHINE_MACHINE_HH
