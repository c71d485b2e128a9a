#include "baseline/uas.hh"

#include <algorithm>
#include <compare>
#include <iterator>
#include <limits>

#include "machine/raw_machine.hh"
#include "sched/priorities.hh"
#include "sched/reservation.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"

namespace csched {

namespace {

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;

/**
 * A free instruction's preference for one cluster (CPSC with the
 * paper's preplacement modification): memory penalty, then operands
 * not yet on (or moving to) the cluster, then load.  The cluster id
 * ends the key, so it is a total order: any sort or selection over it
 * gives the one order a stable sort would.
 */
struct ClusterKey
{
    int penalty;
    int missing;
    int load;
    int cluster;

    auto operator<=>(const ClusterKey &) const = default;
};

/**
 * All mutable state of one UAS run.
 *
 * UAS is strictly cycle-driven: the scheduler fills cycle t completely
 * before moving to t+1, and never revisits earlier cycles.  A copy
 * (or network inject) for a remote operand must therefore be issued in
 * the *current* cycle, and its consumer can issue no earlier than the
 * copy's arrival -- this forward-only behaviour is what the original
 * paper describes, and it is the property that distinguishes UAS from
 * the assignment-first schedulers, which reserve communication
 * retroactively wherever it fits.
 */
struct UasState
{
    UasState(const MachineModel &machine, const DependenceGraph &graph)
        : machine(machine),
          graph(graph),
          raw(machine.commStyle() == CommStyle::Network
                  ? &dynamic_cast<const RawMachine &>(machine)
                  : nullptr),
          fus(machine),
          links(raw ? raw->numLinks() : 0),
          schedule(graph.numInstructions(), machine.numClusters()),
          assignment(graph.numInstructions(), -1),
          committedCluster(graph.numInstructions(), -1),
          availAt(static_cast<size_t>(graph.numInstructions()) *
                      machine.numClusters(),
                  -1),
          load(machine.numClusters(), 0),
          predEdges(graph.numInstructions()),
          executors(kNumOpcodes),
          missing(machine.numClusters())
    {
        for (const auto &edge : graph.edges())
            predEdges[edge.dst].emplace_back(
                edge.src, edge.kind == DepKind::Data);
        for (int op = 0; op < kNumOpcodes; ++op)
            for (int c = 0; c < machine.numClusters(); ++c)
                if (machine.canExecute(c, static_cast<Opcode>(op)))
                    executors[op].push_back(c);
    }

    const MachineModel &machine;
    const DependenceGraph &graph;
    const RawMachine *raw;
    FuReservation fus;
    LinkReservation links;
    Schedule schedule;
    std::vector<int> assignment;
    /** Cluster an unscheduled instruction is moving operands to. */
    std::vector<int> committedCluster;
    std::vector<int> availAt;  // [i * K + c]
    std::vector<int> load;     // instructions per cluster
    /** (pred, isData) pairs per instruction. */
    std::vector<std::vector<std::pair<InstrId, bool>>> predEdges;
    /** Clusters that can execute each opcode, ascending. */
    std::vector<std::vector<int>> executors;
    /** Per-candidate scratch, reused: data operands absent per
     *  cluster, and the keys of the clusters holding every operand. */
    std::vector<int> missing;
    std::vector<ClusterKey> holding;

    int &
    avail(InstrId i, int c)
    {
        return availAt[static_cast<size_t>(i) * machine.numClusters() + c];
    }

    /** True when every operand of @p id is usable on @p cluster at
     *  @p cycle (and ordering preds have issued earlier). */
    bool
    operandsReady(InstrId id, int cluster, int cycle)
    {
        for (const auto &[pred, is_data] : predEdges[id]) {
            if (!is_data) {
                if (schedule.at(pred).cycle >= cycle)
                    return false;
                continue;
            }
            const int have = avail(pred, cluster);
            if (have == -1 || have > cycle)
                return false;
        }
        return true;
    }

    /**
     * Try to issue, at the current @p cycle, one communication step
     * that moves @p producer's value towards @p cluster.  Returns
     * true when a comm op was issued this cycle.
     */
    bool
    tryIssueComm(InstrId producer, int cluster, int cycle)
    {
        const int from = assignment[producer];
        if (schedule.at(producer).finish > cycle)
            return false;  // value not produced yet
        CommEvent event;
        event.producer = producer;
        event.fromCluster = from;
        event.toCluster = cluster;
        event.start = cycle;
        event.arrive = cycle + machine.commLatency(from, cluster);
        switch (machine.commStyle()) {
          case CommStyle::TransferUnit: {
            const int fu = fus.freeFuFor(from, Opcode::Copy, cycle);
            if (fu == -1)
                return false;
            fus.take(from, fu, cycle);
            event.fu = fu;
            break;
          }
          case CommStyle::ReceiveOp: {
            const int fu = fus.freeFuFor(cluster, Opcode::Recv, cycle);
            if (fu == -1)
                return false;
            fus.take(cluster, fu, cycle);
            event.fu = fu;
            break;
          }
          case CommStyle::Network: {
            const auto route = raw->route(from, cluster);
            for (size_t hop = 0; hop < route.size(); ++hop)
                if (!links.free(route[hop],
                                cycle + static_cast<int>(hop)))
                    return false;
            links.takeRoute(route, cycle);
            for (size_t hop = 0; hop < route.size(); ++hop)
                event.linkSlots.emplace_back(
                    route[hop], cycle + static_cast<int>(hop));
            break;
          }
        }
        schedule.addComm(event);
        avail(producer, cluster) = event.arrive;
        return true;
    }

    /** Issue @p id on @p cluster at @p cycle (operands must be ready). */
    bool
    issue(InstrId id, int cluster, int cycle)
    {
        const auto &instr = graph.instr(id);
        const int fu = fus.freeFuFor(cluster, instr.op, cycle);
        if (fu == -1)
            return false;
        fus.take(cluster, fu, cycle);
        Placement placement;
        placement.cluster = cluster;
        placement.cycle = cycle;
        placement.fu = fu;
        placement.finish =
            cycle + machine.execLatency(cluster, graph.latency(id)) +
            (isMemory(instr.op)
                 ? machine.memoryPenalty(instr.memBank, cluster)
                 : 0);
        schedule.place(id, placement);
        assignment[id] = cluster;
        avail(id, cluster) = placement.finish;
        ++load[cluster];
        return true;
    }

    /** Issue @p id on @p cluster at @p cycle if its operands are there. */
    bool
    tryIssue(InstrId id, int cluster, int cycle)
    {
        return operandsReady(id, cluster, cycle) &&
               issue(id, cluster, cycle);
    }

    /** Start every missing operand copy towards @p target this cycle. */
    void
    commitTo(InstrId id, int target, int cycle)
    {
        for (const auto &[pred, is_data] : predEdges[id]) {
            if (!is_data)
                continue;
            if (avail(pred, target) != -1)
                continue;  // already there or already in flight
            if (tryIssueComm(pred, target, cycle))
                committedCluster[id] = target;
        }
    }

    /**
     * Consider candidate @p id at @p cycle: issue it on the first
     * cluster, in cluster-priority order, where it can issue right
     * now; otherwise commit to its preferred cluster and issue as many
     * of the missing copies as this cycle allows.  Returns true when
     * @p id was issued.
     */
    bool
    place(InstrId id, int cycle)
    {
        const auto &instr = graph.instr(id);
        // Preplaced instructions only consider their home; one with
        // copies already in flight keeps its cluster, since changing
        // horses would strand them.
        if (instr.preplaced() || committedCluster[id] != -1) {
            const int cluster = instr.preplaced() ? instr.homeCluster
                                                  : committedCluster[id];
            if (tryIssue(id, cluster, cycle))
                return true;
            commitTo(id, cluster, cycle);
            return false;
        }

        // Free instructions: one key per executable cluster.  A data
        // operand with no value on (or in flight to) a cluster makes
        // operandsReady fail there, so only the clusters holding
        // every operand can issue this cycle, and only they are
        // sorted; the preferred cluster is the minimum over all keys.
        const int k = machine.numClusters();
        std::fill(missing.begin(), missing.end(), 0);
        for (const auto &[pred, is_data] : predEdges[id]) {
            if (!is_data)
                continue;
            const int *row = &availAt[static_cast<size_t>(pred) * k];
            for (int c = 0; c < k; ++c)
                missing[c] += row[c] == -1;
        }
        const bool memory = isMemory(instr.op);
        const auto &clusters = executors[static_cast<int>(instr.op)];
        CSCHED_ASSERT(!clusters.empty(), "no cluster executes ",
                      opcodeName(instr.op));
        holding.clear();
        ClusterKey preferred{kInfinity, kInfinity, kInfinity, kInfinity};
        for (const int c : clusters) {
            const ClusterKey key{
                memory ? machine.memoryPenalty(instr.memBank, c) : 0,
                missing[c], load[c], c};
            preferred = std::min(preferred, key);
            if (key.missing == 0)
                holding.push_back(key);
        }
        std::sort(holding.begin(), holding.end());
        for (const ClusterKey &key : holding)
            if (tryIssue(id, key.cluster, cycle))
                return true;
        commitTo(id, preferred.cluster, cycle);
        return false;
    }
};

} // namespace

UasScheduler::UasScheduler(const MachineModel &machine)
    : machine_(machine)
{
}

ScheduleResult
UasScheduler::run(const DependenceGraph &graph) const
{
    const int n = graph.numInstructions();
    UasState state(machine_, graph);
    const auto priority = criticalPathPriority(graph);
    auto before = [&](InstrId a, InstrId b) {
        if (priority[a] != priority[b])
            return priority[a] > priority[b];
        return a < b;
    };

    // The ready list stays sorted by (priority desc, id asc).  Each
    // cycle's candidates are the instructions ready when the cycle
    // starts: those that become ready during cycle t wait in
    // `arrivals` and are merged in once cycle t ends.
    std::vector<int> unplaced_preds(n, 0);
    std::vector<InstrId> ready;
    for (InstrId id = 0; id < n; ++id) {
        unplaced_preds[id] = static_cast<int>(graph.preds(id).size());
        if (unplaced_preds[id] == 0)
            ready.push_back(id);
    }
    std::sort(ready.begin(), ready.end(), before);
    std::vector<InstrId> arrivals;
    std::vector<InstrId> merged;

    int remaining = n;
    int cycle = 0;
    while (remaining > 0) {
        checkpoint("uas.cycle");
        // Candidates that issue drop out of the list in the same pass.
        size_t kept = 0;
        for (size_t r = 0; r < ready.size(); ++r) {
            const InstrId id = ready[r];
            if (!state.place(id, cycle)) {
                ready[kept++] = id;
                continue;
            }
            --remaining;
            for (InstrId succ : graph.succs(id))
                if (--unplaced_preds[succ] == 0)
                    arrivals.push_back(succ);
        }
        ready.resize(kept);
        std::sort(arrivals.begin(), arrivals.end(), before);
        merged.clear();
        std::merge(ready.begin(), ready.end(), arrivals.begin(),
                   arrivals.end(), std::back_inserter(merged), before);
        ready.swap(merged);
        arrivals.clear();
        ++cycle;
        CSCHED_ASSERT(cycle < kInfinity, "UAS failed to make progress");
    }

    return {std::move(state.schedule), {}};
}

} // namespace csched
