#include "machine/raw_machine.hh"

#include <cmath>
#include <cstdlib>
#include <deque>

#include "support/logging.hh"

namespace csched {

RawMachine::RawMachine(int rows, int cols)
    : rows_(rows), cols_(cols), fus_{FuKind::Universal}
{
    CSCHED_ASSERT(rows >= 1 && cols >= 1, "mesh must be at least 1x1");
    faults_ = FaultIndex::build(FaultMap{}, numClusters());
}

StatusOr<std::unique_ptr<RawMachine>>
RawMachine::tryCreate(int rows, int cols, FaultMap faults)
{
    auto machine = std::make_unique<RawMachine>(rows, cols);
    machine->faults_ =
        FaultIndex::build(std::move(faults), machine->numClusters());
    if (!machine->faults_.map.deadCluster.empty() ||
        !machine->faults_.map.deadLink.empty()) {
        std::string why;
        if (!machine->computeDetourTables(&why))
            return Status::invalidSpec(why);
    }
    return StatusOr<std::unique_ptr<RawMachine>>(std::move(machine));
}

RawMachine
RawMachine::withTiles(int tiles)
{
    CSCHED_ASSERT(tiles >= 1, "need at least one tile");
    // Squarest factorisation with rows <= cols (2 -> 1x2, 8 -> 2x4).
    int rows = static_cast<int>(std::sqrt(static_cast<double>(tiles)));
    while (rows > 1 && tiles % rows != 0)
        --rows;
    return RawMachine(rows, tiles / rows);
}

std::string
RawMachine::name() const
{
    const std::string base =
        "raw" + std::to_string(rows_) + "x" + std::to_string(cols_);
    return faults_.map.empty() ? base : base + "/degraded";
}

const std::vector<FuKind> &
RawMachine::clusterFus(int cluster) const
{
    CSCHED_ASSERT(cluster >= 0 && cluster < numClusters(),
                  "tile ", cluster, " out of range");
    return fus_;
}

int
RawMachine::distance(int from, int to) const
{
    return std::abs(rowOf(from) - rowOf(to)) +
           std::abs(colOf(from) - colOf(to));
}

int
RawMachine::commLatency(int from, int to) const
{
    if (from == to)
        return 0;
    // Three cycles between neighbours, one extra per additional hop;
    // on a degraded mesh the hop count is the detoured alive-path
    // length, so detours are priced everywhere the latency is asked.
    if (!hops_.empty()) {
        const int hops = hops_[to * numClusters() + from];
        if (hops > 0)
            return 3 + (hops - 1);
        // Dead or unreachable endpoint: fall through to the pristine
        // estimate (no schedule ever routes there -- the checker
        // rejects dead endpoints before routes are compared).
    }
    return 3 + (distance(from, to) - 1);
}

int
RawMachine::memoryPenalty(int bank, int cluster) const
{
    if (bank == -1)
        return 0;
    // Analysed (bank-known) references are preplaced on their home
    // tile by the compiler; a remote access would have to take the
    // dynamic network, which costs several cycles of occupancy and
    // header overhead per request/reply pair.
    const int home = homeOfBank(bank);
    if (home == cluster)
        return 0;
    return 6 + 2 * distance(home, cluster);
}

std::unique_ptr<MachineModel>
RawMachine::makeSingleCluster() const
{
    return std::make_unique<RawMachine>(1, 1);
}

int
RawMachine::linkBetween(int tile, int next) const
{
    // Directions: 0 = east, 1 = west, 2 = south, 3 = north.
    int dir;
    if (next == tile + 1)
        dir = 0;
    else if (next == tile - 1)
        dir = 1;
    else if (next == tile + cols_)
        dir = 2;
    else if (next == tile - cols_)
        dir = 3;
    else
        CSCHED_PANIC("tiles ", tile, " and ", next, " are not neighbours");
    return tile * 4 + dir;
}

bool
RawMachine::xyPathAlive(int from, int to) const
{
    int current = from;
    auto step = [&](int next) {
        if (!clusterAlive(next) ||
            !linkAlive(linkBetween(current, next)))
            return false;
        current = next;
        return true;
    };
    while (colOf(current) != colOf(to))
        if (!step(colOf(current) < colOf(to) ? current + 1 : current - 1))
            return false;
    while (rowOf(current) != rowOf(to))
        if (!step(rowOf(current) < rowOf(to) ? current + cols_
                                             : current - cols_))
            return false;
    return true;
}

std::vector<int>
RawMachine::route(int from, int to) const
{
    std::vector<int> links;
    if (from == to)
        return links;
    if (!hops_.empty()) {
        if (!clusterAlive(from) || !clusterAlive(to))
            return links;
        if (!xyPathAlive(from, to)) {
            // Deterministic shortest alive detour from the
            // per-destination next-hop tables.
            int current = from;
            while (current != to) {
                const int next = nextHop_[to * numClusters() + current];
                CSCHED_ASSERT(next >= 0, "no alive route from tile ",
                              from, " to tile ", to);
                links.push_back(linkBetween(current, next));
                current = next;
            }
            return links;
        }
    }
    int current = from;
    // X (column) first, then Y (row): dimension-ordered routing.
    while (colOf(current) != colOf(to)) {
        const int next = colOf(current) < colOf(to) ? current + 1
                                                    : current - 1;
        links.push_back(linkBetween(current, next));
        current = next;
    }
    while (rowOf(current) != rowOf(to)) {
        const int next = rowOf(current) < rowOf(to) ? current + cols_
                                                    : current - cols_;
        links.push_back(linkBetween(current, next));
        current = next;
    }
    return links;
}

std::vector<int>
RawMachine::interiorLinks(int rows, int cols)
{
    std::vector<int> links;
    for (int tile = 0; tile < rows * cols; ++tile) {
        const int row = tile / cols;
        const int col = tile % cols;
        if (col + 1 < cols)
            links.push_back(tile * 4 + 0);  // east
        if (col > 0)
            links.push_back(tile * 4 + 1);  // west
        if (row + 1 < rows)
            links.push_back(tile * 4 + 2);  // south
        if (row > 0)
            links.push_back(tile * 4 + 3);  // north
    }
    return links;
}

bool
RawMachine::computeDetourTables(std::string *why)
{
    const int n = numClusters();
    nextHop_.assign(static_cast<size_t>(n) * n, -1);
    hops_.assign(static_cast<size_t>(n) * n, -1);

    // Per-destination reverse BFS over alive tiles and links.  The
    // frontier is FIFO and neighbours are visited in fixed direction
    // order (E, W, S, N), so the next-hop tables -- and therefore
    // every detour route -- are deterministic.
    for (int dest : faults_.alive) {
        int *next_hop = &nextHop_[static_cast<size_t>(dest) * n];
        int *hops = &hops_[static_cast<size_t>(dest) * n];
        hops[dest] = 0;
        std::deque<int> frontier{dest};
        int reached = 1;
        while (!frontier.empty()) {
            const int tile = frontier.front();
            frontier.pop_front();
            const int neighbours[4] = {
                colOf(tile) + 1 < cols_ ? tile + 1 : -1,
                colOf(tile) > 0 ? tile - 1 : -1,
                rowOf(tile) + 1 < rows_ ? tile + cols_ : -1,
                rowOf(tile) > 0 ? tile - cols_ : -1,
            };
            for (int source : neighbours) {
                if (source < 0 || !clusterAlive(source) ||
                    hops[source] != -1)
                    continue;
                if (!linkAlive(linkBetween(source, tile)))
                    continue;
                hops[source] = hops[tile] + 1;
                next_hop[source] = tile;
                frontier.push_back(source);
                ++reached;
            }
        }
        if (reached != numAliveClusters()) {
            if (why != nullptr)
                *why = "fault map disconnects the mesh: only " +
                       std::to_string(reached) + " of " +
                       std::to_string(numAliveClusters()) +
                       " alive tiles can reach tile " +
                       std::to_string(dest);
            return false;
        }
    }
    return true;
}

} // namespace csched
