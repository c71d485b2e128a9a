/**
 * @file
 * The Raw tiled processor model (Taylor et al., IEEE Micro 2002).
 *
 * Tiles are organised in a rows x cols mesh; each tile has a single
 * scalar pipeline (modelled as one Universal FU), its own registers,
 * and a slice of the interleaved memory system.  Scalar operands move
 * between tiles on the compiler-controlled static network with
 * register-mapped ports: latency is three cycles between neighbouring
 * tiles and one extra cycle per additional hop.  Routes follow
 * dimension-ordered (X-then-Y) paths, and each directed mesh link can
 * carry one word per cycle, so the scheduler must reserve link slots.
 *
 * Degraded meshes (machine/fault_map.hh) may mark tiles and directed
 * links dead.  Routing stays X-then-Y whenever that path is fully
 * alive and detours along a deterministic shortest alive path
 * otherwise; commLatency() prices the detoured hop count, so every
 * pass, algorithm, and the checker agree on the cost of routing
 * around faults.  Construction validates that all alive tiles remain
 * mutually reachable (use tryCreate for a structured error).
 */

#ifndef CSCHED_MACHINE_RAW_MACHINE_HH
#define CSCHED_MACHINE_RAW_MACHINE_HH

#include <memory>

#include "machine/fault_map.hh"
#include "machine/machine.hh"

namespace csched {

/** Raw mesh machine; tile ids are row-major. */
class RawMachine : public MachineModel
{
  public:
    /** Build a @p rows x @p cols mesh of tiles. */
    RawMachine(int rows, int cols);

    /**
     * Validated construction from spec text: fails with InvalidSpec
     * when @p faults leaves some pair of alive tiles unreachable over
     * the alive links (in either direction).
     */
    static StatusOr<std::unique_ptr<RawMachine>>
    tryCreate(int rows, int cols, FaultMap faults);

    /** Convenience: square-ish mesh with @p tiles tiles (1,2,4,8,16...). */
    static RawMachine withTiles(int tiles);

    std::string name() const override;
    int numClusters() const override { return rows_ * cols_; }
    const std::vector<FuKind> &clusterFus(int cluster) const override;
    int commLatency(int from, int to) const override;
    CommStyle commStyle() const override { return CommStyle::Network; }
    int memoryPenalty(int bank, int cluster) const override;
    std::unique_ptr<MachineModel> makeSingleCluster() const override;

    bool clusterAlive(int cluster) const override
    {
        return !faults_.map.clusterDead(cluster);
    }
    int numAliveClusters() const override
    {
        return static_cast<int>(faults_.alive.size());
    }
    int remapToAlive(int cluster) const override
    {
        return faults_.remap[cluster];
    }
    int latencyFactor(int cluster) const override
    {
        return faults_.map.factorOf(cluster);
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    int rowOf(int tile) const { return tile / cols_; }
    int colOf(int tile) const { return tile % cols_; }
    int tileAt(int row, int col) const { return row * cols_ + col; }

    /** Manhattan distance between two tiles. */
    int distance(int from, int to) const;

    /**
     * Directed mesh links along the route from @p from to @p to:
     * X-then-Y when that path is fully alive, else a deterministic
     * shortest alive detour.  Empty when the endpoints coincide or
     * (on a degraded mesh) when either endpoint is dead.  Link ids
     * are stable and dense in [0, numLinks()).
     */
    std::vector<int> route(int from, int to) const;

    /** Total number of directed mesh links (4 per tile). */
    int numLinks() const { return numClusters() * 4; }

    /** True when directed link @p link is usable. */
    bool linkAlive(int link) const { return !faults_.map.linkDead(link); }

    /**
     * Directed link ids that physically exist on a @p rows x @p cols
     * mesh (links pointing off the edge are excluded) -- the universe
     * FaultSpec::materialize draws dead links from.
     */
    static std::vector<int> interiorLinks(int rows, int cols);

  private:
    /** Directed link leaving @p tile towards @p next (a neighbour). */
    int linkBetween(int tile, int next) const;

    /** True when every link of the X-then-Y path is usable. */
    bool xyPathAlive(int from, int to) const;

    /**
     * Build the per-destination shortest-path next-hop tables over
     * alive tiles and links; returns false when some pair of alive
     * tiles is unreachable (and fills @p why).
     */
    bool computeDetourTables(std::string *why);

    int rows_;
    int cols_;
    std::vector<FuKind> fus_;
    FaultIndex faults_;
    /** nextHop_[to * N + tile]: next tile towards @p to; -1 = none. */
    std::vector<int> nextHop_;
    /** hops_[to * N + tile]: alive-path hop count; -1 = unreachable. */
    std::vector<int> hops_;
};

} // namespace csched

#endif // CSCHED_MACHINE_RAW_MACHINE_HH
