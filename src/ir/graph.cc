#include "ir/graph.hh"

#include <algorithm>
#include <deque>

#include "support/logging.hh"

namespace csched {

DependenceGraph::DependenceGraph() : DependenceGraph(LatencyModel())
{
}

DependenceGraph::DependenceGraph(LatencyModel latencies)
    : latencies_(std::move(latencies))
{
}

InstrId
DependenceGraph::addInstruction(Instruction instr)
{
    CSCHED_ASSERT(!finalized_, "cannot add instructions after finalize()");
    const InstrId id = static_cast<InstrId>(instrs_.size());
    instr.id = id;
    instrs_.push_back(std::move(instr));
    preds_.emplace_back();
    succs_.emplace_back();
    return id;
}

void
DependenceGraph::addEdge(InstrId src, InstrId dst, DepKind kind)
{
    CSCHED_ASSERT(!finalized_, "cannot add edges after finalize()");
    checkId(src);
    checkId(dst);
    CSCHED_ASSERT(src != dst, "self edge on instruction ", src);
    // Coalesce duplicates: a Data edge subsumes Anti/Output ordering.
    // preds_[dst] lists the sources of dst's in-edges, so the check
    // costs O(in-degree of dst).  An upgrade finds the edge from the
    // back of edges_: a repeated operand's edge is among the last few.
    const auto &preds = preds_[dst];
    if (std::find(preds.begin(), preds.end(), src) != preds.end()) {
        if (kind == DepKind::Data) {
            const auto edge = std::find_if(
                edges_.rbegin(), edges_.rend(), [&](const DepEdge &e) {
                    return e.src == src && e.dst == dst;
                });
            edge->kind = DepKind::Data;
        }
        return;
    }
    edges_.push_back({src, dst, kind});
    succs_[src].push_back(dst);
    preds_[dst].push_back(src);
}

const Instruction &
DependenceGraph::instr(InstrId id) const
{
    checkId(id);
    return instrs_[id];
}

Instruction &
DependenceGraph::instr(InstrId id)
{
    checkId(id);
    return instrs_[id];
}

const std::vector<InstrId> &
DependenceGraph::preds(InstrId id) const
{
    checkId(id);
    return preds_[id];
}

const std::vector<InstrId> &
DependenceGraph::succs(InstrId id) const
{
    checkId(id);
    return succs_[id];
}

int
DependenceGraph::latency(InstrId id) const
{
    checkId(id);
    return latencies_.latency(instrs_[id].op);
}

void
DependenceGraph::finalize()
{
    CSCHED_ASSERT(!finalized_, "finalize() called twice");
    CSCHED_ASSERT(numInstructions() > 0, "cannot finalize an empty graph");
    computeTopoOrder();
    computeLevels();
    computeCriticalPath();
    finalized_ = true;
}

void
DependenceGraph::remapPreplacedHomes(const std::vector<int> &remap)
{
    CSCHED_ASSERT(finalized_, "remapPreplacedHomes() before finalize()");
    for (auto &instr : instrs_) {
        if (instr.homeCluster == kNoCluster)
            continue;
        CSCHED_ASSERT(instr.homeCluster >= 0 &&
                          instr.homeCluster <
                              static_cast<int>(remap.size()),
                      "home cluster ", instr.homeCluster,
                      " outside the remap table");
        instr.homeCluster = remap[instr.homeCluster];
    }
}

void
DependenceGraph::checkId(InstrId id) const
{
    CSCHED_ASSERT(id >= 0 && id < numInstructions(),
                  "instruction id ", id, " out of range [0, ",
                  numInstructions(), ")");
}

void
DependenceGraph::computeTopoOrder()
{
    const int n = numInstructions();
    std::vector<int> in_degree(n, 0);
    for (InstrId id = 0; id < n; ++id)
        in_degree[id] = static_cast<int>(preds_[id].size());

    std::deque<InstrId> worklist;
    for (InstrId id = 0; id < n; ++id)
        if (in_degree[id] == 0)
            worklist.push_back(id);

    topo_.clear();
    topo_.reserve(n);
    while (!worklist.empty()) {
        const InstrId id = worklist.front();
        worklist.pop_front();
        topo_.push_back(id);
        for (InstrId succ : succs_[id])
            if (--in_degree[succ] == 0)
                worklist.push_back(succ);
    }
    CSCHED_ASSERT(static_cast<int>(topo_.size()) == n,
                  "dependence graph has a cycle: only ", topo_.size(),
                  " of ", n, " instructions are orderable");
}

void
DependenceGraph::computeLevels()
{
    const int n = numInstructions();
    earliest_.assign(n, 0);
    slack_.assign(n, 0);
    level_.assign(n, 0);
    maxLevel_ = 0;
    cpl_ = 0;

    for (InstrId id : topo_) {
        int start = 0;
        int lvl = 0;
        for (InstrId pred : preds_[id]) {
            start = std::max(start, earliest_[pred] + latency(pred));
            lvl = std::max(lvl, level_[pred] + 1);
        }
        earliest_[id] = start;
        level_[id] = lvl;
        maxLevel_ = std::max(maxLevel_, lvl);
        cpl_ = std::max(cpl_, start + latency(id));
    }

    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
        const InstrId id = *it;
        int through = 0;
        for (InstrId succ : succs_[id])
            through = std::max(through, slack_[succ]);
        slack_[id] = latency(id) + through;
    }
}

void
DependenceGraph::computeCriticalPath()
{
    // Walk from the root with the longest downstream chain, always
    // following a successor that stays on a longest path.
    const int n = numInstructions();
    criticalPath_.clear();

    InstrId current = kNoInstr;
    for (InstrId id = 0; id < n; ++id) {
        if (!preds_[id].empty())
            continue;
        if (current == kNoInstr || slack_[id] > slack_[current])
            current = id;
    }
    CSCHED_ASSERT(current != kNoInstr, "graph has no roots");

    while (current != kNoInstr) {
        criticalPath_.push_back(current);
        InstrId next = kNoInstr;
        for (InstrId succ : succs_[current]) {
            // Stay on a longest path: the successor must account for
            // the remaining slack below this node.
            if (slack_[succ] == slack_[current] - latency(current) &&
                slack_[succ] > 0) {
                if (next == kNoInstr || slack_[succ] > slack_[next])
                    next = succ;
            }
        }
        current = next;
    }
}

int
DependenceGraph::earliestStart(InstrId id) const
{
    CSCHED_ASSERT(finalized_, "analysis query before finalize()");
    checkId(id);
    return earliest_[id];
}

int
DependenceGraph::latestFinishSlack(InstrId id) const
{
    CSCHED_ASSERT(finalized_, "analysis query before finalize()");
    checkId(id);
    return slack_[id];
}

int
DependenceGraph::criticalPathLength() const
{
    CSCHED_ASSERT(finalized_, "analysis query before finalize()");
    return cpl_;
}

int
DependenceGraph::level(InstrId id) const
{
    CSCHED_ASSERT(finalized_, "analysis query before finalize()");
    checkId(id);
    return level_[id];
}

int
DependenceGraph::maxLevel() const
{
    CSCHED_ASSERT(finalized_, "analysis query before finalize()");
    return maxLevel_;
}

const std::vector<InstrId> &
DependenceGraph::topoOrder() const
{
    CSCHED_ASSERT(finalized_, "analysis query before finalize()");
    return topo_;
}

const std::vector<InstrId> &
DependenceGraph::criticalPath() const
{
    CSCHED_ASSERT(finalized_, "analysis query before finalize()");
    return criticalPath_;
}

std::vector<InstrId>
DependenceGraph::roots() const
{
    std::vector<InstrId> out;
    for (InstrId id = 0; id < numInstructions(); ++id)
        if (preds_[id].empty())
            out.push_back(id);
    return out;
}

std::vector<InstrId>
DependenceGraph::leaves() const
{
    std::vector<InstrId> out;
    for (InstrId id = 0; id < numInstructions(); ++id)
        if (succs_[id].empty())
            out.push_back(id);
    return out;
}

int
DependenceGraph::numPreplaced() const
{
    int count = 0;
    for (const auto &instr : instrs_)
        if (instr.preplaced())
            ++count;
    return count;
}

} // namespace csched
