/**
 * @file
 * Deterministic machine fault maps: dead clusters/tiles, dead directed
 * mesh links, and slowed clusters with an FU-latency multiplier.
 *
 * A fault map turns a pristine machine model into a degraded one that
 * is still a first-class schedulable platform: the schedulers must
 * route around dead resources instead of treating them as errors.
 * Maps are parsed from the machine-spec suffix
 *
 *   <base>/faults=seed:7,tiles:5%,links:3%,slow:10%,factor:2
 *
 * where each category takes either a percentage (seeded, deterministic
 * draw without replacement) or an explicit `+`-separated id list
 * (`tiles:3+7`).  Because the whole map derives from the spec text and
 * the seed, a degraded machine is identical on every worker, host, and
 * resume -- the property the grid's byte-identical reports rely on.
 */

#ifndef CSCHED_MACHINE_FAULT_MAP_HH
#define CSCHED_MACHINE_FAULT_MAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.hh"

namespace csched {

/** Materialised fault state of one concrete machine. */
struct FaultMap
{
    /** Per-cluster dead flag; empty means no cluster faults. */
    std::vector<uint8_t> deadCluster;
    /** Per-directed-link dead flag (mesh only); empty means none. */
    std::vector<uint8_t> deadLink;
    /** Per-cluster FU-latency multiplier; empty means all 1. */
    std::vector<int> slowFactor;

    bool
    empty() const
    {
        return deadCluster.empty() && deadLink.empty() &&
               slowFactor.empty();
    }

    bool
    clusterDead(int cluster) const
    {
        return !deadCluster.empty() && deadCluster[cluster] != 0;
    }

    bool
    linkDead(int link) const
    {
        return !deadLink.empty() && deadLink[link] != 0;
    }

    int
    factorOf(int cluster) const
    {
        return slowFactor.empty() ? 1 : slowFactor[cluster];
    }
};

/**
 * Parsed (machine-size independent) fault specification.  Percentages
 * and explicit id lists may be combined; the dead set is the union.
 */
struct FaultSpec
{
    uint64_t seed = 0;
    int tilesPct = 0;
    std::vector<int> tiles;
    int linksPct = 0;
    std::vector<int> links;
    int slowPct = 0;
    std::vector<int> slow;
    /** Latency multiplier applied to slowed clusters. */
    int slowFactor = 2;

    bool
    empty() const
    {
        return tilesPct == 0 && tiles.empty() && linksPct == 0 &&
               links.empty() && slowPct == 0 && slow.empty();
    }

    bool
    wantsLinkFaults() const
    {
        return linksPct > 0 || !links.empty();
    }

    /**
     * Parse the text after "faults=" (e.g. "seed:7,tiles:5%").
     * Returns InvalidSpec with a diagnostic on malformed input.
     */
    static StatusOr<FaultSpec> parse(const std::string &text);

    /**
     * Materialise the spec against a machine with @p num_clusters
     * clusters and the given faultable directed-link id universe
     * (empty for machines without mesh links).  Draws are seeded and
     * deterministic.  Fails with InvalidSpec when ids are out of
     * range or when the map would kill every cluster.
     */
    StatusOr<FaultMap> materialize(int num_clusters,
                                   const std::vector<int> &link_ids,
                                   int num_links) const;
};

/**
 * Derived per-machine index over a FaultMap: the alive-cluster list
 * and the deterministic dead->alive remap table the machine models
 * share.  remap[c] == c for alive clusters; a dead cluster c maps to
 * alive[c % numAlive].
 */
struct FaultIndex
{
    FaultMap map;
    std::vector<int> alive;   ///< alive cluster ids, ascending
    std::vector<int> remap;   ///< dead->alive remap (identity if alive)

    static FaultIndex build(FaultMap map, int num_clusters);
};

} // namespace csched

#endif // CSCHED_MACHINE_FAULT_MAP_HH
