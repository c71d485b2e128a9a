/**
 * @file
 * Resource reservation tables used by the schedulers.
 *
 * FuReservation tracks per-(cluster, FU) issue slots; LinkReservation
 * tracks per-(link, cycle) occupancy of the Raw static network.  Both
 * grow on demand and only ever take slots; the const queries find the
 * earliest free slot for a scheduler to take.
 */

#ifndef CSCHED_SCHED_RESERVATION_HH
#define CSCHED_SCHED_RESERVATION_HH

#include <vector>

#include "ir/opcode.hh"
#include "machine/machine.hh"

namespace csched {

/** Per-cluster, per-FU busy table. */
class FuReservation
{
  public:
    /** Build an empty table shaped like @p machine. */
    explicit FuReservation(const MachineModel &machine);

    /** True when FU @p fu of @p cluster is free at @p cycle. */
    bool free(int cluster, int fu, int cycle) const;

    /** Mark FU @p fu of @p cluster busy at @p cycle (must be free). */
    void take(int cluster, int fu, int cycle);

    /**
     * Index of a FU on @p cluster that can issue @p op and is free at
     * @p cycle, or -1 when none is.
     */
    int freeFuFor(int cluster, Opcode op, int cycle) const;

    /**
     * Earliest cycle >= @p from with a FU on @p cluster able to issue
     * @p op; also returns the FU index.  Always succeeds (tables grow).
     */
    std::pair<int, int> earliestFor(int cluster, Opcode op,
                                    int from) const;

  private:
    const MachineModel &machine_;
    /** busy_[cluster][fu] is a growable busy bitmap indexed by cycle. */
    std::vector<std::vector<std::vector<bool>>> busy_;
};

/** Per-link busy table for the Raw static network. */
class LinkReservation
{
  public:
    /** Build an empty table for @p num_links directed links. */
    explicit LinkReservation(int num_links);

    bool free(int link, int cycle) const;
    void take(int link, int cycle);

    /**
     * Earliest send cycle >= @p from at which link @p route[k] is free
     * at send + k for every hop k.
     */
    int earliestRouteSlot(const std::vector<int> &route, int from) const;

    /** Reserve every hop of @p route starting at @p send. */
    void takeRoute(const std::vector<int> &route, int send);

  private:
    std::vector<std::vector<bool>> busy_;
};

} // namespace csched

#endif // CSCHED_SCHED_RESERVATION_HH
