/**
 * @file
 * Schedule a stencil across a Raw mesh and visualise the spatial
 * result: which tile every instruction landed on, how values route
 * through the static network, and how preplacement anchors the
 * assignment.  Pass a mesh size (default 4 => 4x4 tiles):
 *
 *   ./build/examples/raw_mesh 2
 */

#include <iostream>
#include <string>

#include "eval/experiment.hh"
#include "machine/raw_machine.hh"
#include "support/str.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

using namespace csched;

int
main(int argc, char **argv)
{
    const int side = argc > 1 ? std::stoi(argv[1]) : 4;
    const RawMachine machine(side, side);
    const int tiles = machine.numClusters();

    const auto &spec = findWorkload("jacobi");
    const auto graph = spec.build(tiles, tiles);

    std::cout << "jacobi on " << machine.name() << " ("
              << graph.numInstructions() << " instructions, "
              << graph.numPreplaced() << " preplaced by bank)\n\n";

    const ConvergentAlgorithm conv(machine);
    const auto result = conv.run(graph);
    const auto &schedule = result.schedule;

    // Tile occupancy map.
    std::cout << "instructions per tile (mesh layout):\n";
    for (int r = 0; r < machine.rows(); ++r) {
        std::cout << "  ";
        for (int c = 0; c < machine.cols(); ++c) {
            std::string cell = std::to_string(
                schedule.clusterLoad(machine.tileAt(r, c)));
            cell.resize(5, ' ');
            std::cout << cell;
        }
        std::cout << "\n";
    }

    // Network traffic summary.
    int messages = 0;
    int hops = 0;
    int max_distance = 0;
    for (const auto &event : schedule.comms()) {
        ++messages;
        hops += static_cast<int>(event.linkSlots.size());
        max_distance = std::max(
            max_distance,
            machine.distance(event.fromCluster, event.toCluster));
    }
    std::cout << "\nstatic-network traffic: " << messages
              << " messages, " << hops << " link-cycles, longest route "
              << max_distance << " hops\n";

    std::cout << "makespan: " << schedule.makespan()
              << " cycles (critical path "
              << graph.criticalPathLength() << ")\n\n";

    std::cout << "convergence of the spatial assignment:\n";
    for (const auto &step : result.trace)
        if (!step.temporalOnly)
            std::cout << "  " << step.pass << ": "
                      << formatDouble(100.0 * step.fractionChanged, 1)
                      << "% of preferred tiles changed\n";
    return 0;
}
