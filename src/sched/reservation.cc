#include "sched/reservation.hh"

#include "support/logging.hh"

namespace csched {

namespace {

bool
bitmapFree(const std::vector<bool> &bitmap, int cycle)
{
    return cycle >= static_cast<int>(bitmap.size()) || !bitmap[cycle];
}

void
bitmapTake(std::vector<bool> &bitmap, int cycle)
{
    if (cycle >= static_cast<int>(bitmap.size()))
        bitmap.resize(cycle + 1, false);
    CSCHED_ASSERT(!bitmap[cycle], "slot ", cycle, " already taken");
    bitmap[cycle] = true;
}

} // namespace

FuReservation::FuReservation(const MachineModel &machine)
    : machine_(machine)
{
    busy_.resize(machine.numClusters());
    for (int c = 0; c < machine.numClusters(); ++c)
        busy_[c].resize(machine.clusterFus(c).size());
}

bool
FuReservation::free(int cluster, int fu, int cycle) const
{
    return bitmapFree(busy_[cluster][fu], cycle);
}

void
FuReservation::take(int cluster, int fu, int cycle)
{
    bitmapTake(busy_[cluster][fu], cycle);
}

int
FuReservation::freeFuFor(int cluster, Opcode op, int cycle) const
{
    const auto &fus = machine_.clusterFus(cluster);
    for (int fu = 0; fu < static_cast<int>(fus.size()); ++fu)
        if (fuCanExecute(fus[fu], op) && free(cluster, fu, cycle))
            return fu;
    return -1;
}

std::pair<int, int>
FuReservation::earliestFor(int cluster, Opcode op, int from) const
{
    CSCHED_ASSERT(machine_.canExecute(cluster, op),
                  "cluster ", cluster, " cannot execute ", opcodeName(op));
    for (int cycle = from;; ++cycle) {
        const int fu = freeFuFor(cluster, op, cycle);
        if (fu != -1)
            return {cycle, fu};
    }
}

LinkReservation::LinkReservation(int num_links) : busy_(num_links)
{
}

bool
LinkReservation::free(int link, int cycle) const
{
    return bitmapFree(busy_[link], cycle);
}

void
LinkReservation::take(int link, int cycle)
{
    bitmapTake(busy_[link], cycle);
}

int
LinkReservation::earliestRouteSlot(const std::vector<int> &route,
                                   int from) const
{
    for (int send = from;; ++send) {
        bool ok = true;
        for (size_t hop = 0; hop < route.size(); ++hop) {
            if (!free(route[hop], send + static_cast<int>(hop))) {
                ok = false;
                break;
            }
        }
        if (ok)
            return send;
    }
}

void
LinkReservation::takeRoute(const std::vector<int> &route, int send)
{
    for (size_t hop = 0; hop < route.size(); ++hop)
        take(route[hop], send + static_cast<int>(hop));
}

} // namespace csched
