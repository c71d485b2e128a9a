/**
 * @file
 * Data dependence graph of one scheduling unit.
 *
 * A scheduling unit is the region the convergent scheduler operates on
 * (a basic block, trace, superblock, ... -- Section 3).  Nodes are
 * instructions; edges are dependences.  The graph owns the derived
 * analyses every pass consumes: latency-weighted levels (lp), reverse
 * levels (ls), the critical-path length (CPL), topological order, and a
 * materialised critical path.
 */

#ifndef CSCHED_IR_GRAPH_HH
#define CSCHED_IR_GRAPH_HH

#include <string>
#include <vector>

#include "ir/instruction.hh"
#include "ir/latency_model.hh"

namespace csched {

/** Kind of a dependence edge. */
enum class DepKind {
    Data,    ///< true (flow) dependence: dst consumes src's value
    Anti,    ///< write-after-read ordering (no value transfer)
    Output,  ///< write-after-write ordering (no value transfer)
};

/** One dependence edge. */
struct DepEdge
{
    InstrId src = kNoInstr;
    InstrId dst = kNoInstr;
    DepKind kind = DepKind::Data;
};

/**
 * Immutable-after-finalize dependence graph.
 *
 * Build with addInstruction()/addEdge(), then call finalize() once; the
 * analyses are computed there and the graph rejects further mutation.
 * finalize() validates that the graph is acyclic and the ids are sound.
 */
class DependenceGraph
{
  public:
    /** Create an empty graph using the default R4000 latency model. */
    DependenceGraph();

    /** Create an empty graph with a custom latency model. */
    explicit DependenceGraph(LatencyModel latencies);

    /** Append an instruction; returns its dense id. */
    InstrId addInstruction(Instruction instr);

    /**
     * Add a dependence edge; duplicate edges are coalesced in place (a
     * Data edge subsumes Anti/Output ordering).  Costs O(in-degree of
     * @p dst), so a build is linear in the edges while in-degrees stay
     * bounded; a Data edge that upgrades a duplicate also scans
     * edges() back from the end to it.
     */
    void addEdge(InstrId src, InstrId dst, DepKind kind = DepKind::Data);

    /**
     * Compute all analyses (topological order, levels, slack, CPL and
     * the critical path: O(N + E)); must be called exactly once after
     * building.
     */
    void finalize();

    bool finalized() const { return finalized_; }

    /**
     * Rewrite every preplaced home h to @p remap[h].  The one permitted
     * post-finalize mutation: it re-homes a graph built for a pristine
     * machine onto the alive clusters of a degraded one.  No analysis
     * depends on homes, so nothing is recomputed.
     */
    void remapPreplacedHomes(const std::vector<int> &remap);

    // ---- Structure queries (valid any time) -------------------------

    int numInstructions() const
    {
        return static_cast<int>(instrs_.size());
    }

    const Instruction &instr(InstrId id) const;
    Instruction &instr(InstrId id);

    const std::vector<Instruction> &instructions() const { return instrs_; }

    /** Ids of instructions this one depends on. */
    const std::vector<InstrId> &preds(InstrId id) const;

    /** Ids of instructions depending on this one. */
    const std::vector<InstrId> &succs(InstrId id) const;

    /** All edges, in insertion order. */
    const std::vector<DepEdge> &edges() const { return edges_; }

    const LatencyModel &latencies() const { return latencies_; }

    /** Result latency of instruction @p id. */
    int latency(InstrId id) const;

    // ---- Analyses (valid after finalize()) --------------------------

    /**
     * Latency-weighted longest path from any root to @p id, i.e. the
     * earliest cycle the instruction could issue on an unbounded
     * machine ("lp" in the paper's INITTIME description).
     */
    int earliestStart(InstrId id) const;

    /**
     * Latency-weighted longest path from @p id through any leaf,
     * including the instruction's own latency ("ls"): a lower bound on
     * the cycles remaining once @p id issues.
     */
    int latestFinishSlack(InstrId id) const;

    /**
     * Critical-path length in cycles: the makespan lower bound on an
     * unbounded machine with free communication.
     */
    int criticalPathLength() const;

    /**
     * Depth of @p id counted in nodes from the furthest root
     * (the paper's level(i), used by LEVEL and EMPHCP).
     */
    int level(InstrId id) const;

    /** Largest level in the graph. */
    int maxLevel() const;

    /** A topological order of all instruction ids. */
    const std::vector<InstrId> &topoOrder() const;

    /**
     * Instructions on one latency-weighted critical path, in
     * dependence order (used by the PATH pass).
     */
    const std::vector<InstrId> &criticalPath() const;

    /** Ids of instructions with no predecessors. */
    std::vector<InstrId> roots() const;

    /** Ids of instructions with no successors. */
    std::vector<InstrId> leaves() const;

    /** Number of preplaced instructions. */
    int numPreplaced() const;

  private:
    void checkId(InstrId id) const;
    void computeTopoOrder();
    void computeLevels();
    void computeCriticalPath();

    LatencyModel latencies_;
    std::vector<Instruction> instrs_;
    std::vector<DepEdge> edges_;
    std::vector<std::vector<InstrId>> preds_;
    std::vector<std::vector<InstrId>> succs_;
    bool finalized_ = false;

    std::vector<InstrId> topo_;
    std::vector<int> earliest_;
    std::vector<int> slack_;
    std::vector<int> level_;
    int maxLevel_ = 0;
    int cpl_ = 0;
    std::vector<InstrId> criticalPath_;
};

} // namespace csched

#endif // CSCHED_IR_GRAPH_HH
