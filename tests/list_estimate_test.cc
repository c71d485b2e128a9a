/**
 * @file
 * The list-simulation estimator shared by PCC and Rawcc, for both
 * issue models: the bound contract (below the bound an estimate is
 * exact, and at or above it the estimate may stop early but never
 * reports less than the bound), agreement with the binary-heap
 * reference (tests/sched/heap_reference_estimator.hh) on every
 * estimate, bounded or not, and the finish > ready precondition of
 * its bucket queue.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/pcc.hh"
#include "baseline/rawcc_clusterer.hh"
#include "eval/experiment.hh"
#include "machine/machine_spec.hh"
#include "sched/heap_reference_estimator.hh"
#include "sched/list_estimate.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

const char *const kMachines[] = {
    "vliw4", "raw4x4", "raw4x4/faults=seed:7,tiles:12%,links:5%,slow:12%"};

/** Draw a seeded random assignment of every instruction to an alive
 *  cluster of @p machine into @p cluster_of. */
void
drawAssignment(const MachineModel &machine, Rng &rng,
               std::vector<int> &cluster_of)
{
    std::vector<int> alive;
    for (int c = 0; c < machine.numClusters(); ++c)
        if (machine.clusterAlive(c))
            alive.push_back(c);
    for (int &cluster : cluster_of)
        cluster = alive[rng.range(static_cast<int>(alive.size()))];
}

/**
 * Estimate seeded random assignments of @p graph onto the alive
 * clusters of @p machine, each once unbounded and then with the bounds
 * full - 1, full, full + 1 and a random one.
 */
template <typename IssueModel, typename... ModelArgs>
void
expectBoundContract(const DependenceGraph &graph,
                    const MachineModel &machine, Rng &rng,
                    const ModelArgs &...model_args)
{
    ListEstimator<IssueModel> estimate(graph, machine.firstHopLatency(),
                                       model_args...);
    std::vector<int> cluster_of(graph.numInstructions());
    for (int draw = 0; draw < 3; ++draw) {
        drawAssignment(machine, rng, cluster_of);
        const int full = estimate(cluster_of);
        for (int bound : {full - 1, full, full + 1,
                          1 + rng.range(2 * full + 1)}) {
            const int bounded = estimate(cluster_of, bound);
            if (full < bound) {
                EXPECT_EQ(bounded, full) << "bound " << bound;
            } else {
                EXPECT_GE(bounded, bound);
                EXPECT_LE(bounded, full);
            }
        }
        // A stopped estimate leaves nothing behind for the next one.
        EXPECT_EQ(estimate(cluster_of), full);
    }
}

/**
 * The bucket-queue estimator and the heap reference pop in the same
 * order, so on seeded random assignments they return the same value,
 * unbounded and at the bounds full - 1, full, full + 1 and a random
 * one (where both stop at the same pop).
 */
template <typename IssueModel, typename... ModelArgs>
void
expectMatchesHeapReference(const DependenceGraph &graph,
                           const MachineModel &machine, Rng &rng,
                           const ModelArgs &...model_args)
{
    ListEstimator<IssueModel> estimate(graph, machine.firstHopLatency(),
                                       model_args...);
    HeapReferenceEstimator<IssueModel> reference(
        graph, machine.firstHopLatency(), model_args...);
    std::vector<int> cluster_of(graph.numInstructions());
    for (int draw = 0; draw < 3; ++draw) {
        drawAssignment(machine, rng, cluster_of);
        const int full = reference(cluster_of);
        ASSERT_EQ(estimate(cluster_of), full);
        for (int bound : {full - 1, full, full + 1,
                          1 + rng.range(2 * full + 1)})
            EXPECT_EQ(estimate(cluster_of, bound),
                      reference(cluster_of, bound))
                << "bound " << bound;
    }
}

/** Run @p check(graph, machine, rng) on every registered workload on
 *  every machine of kMachines, built with one bank per cluster. */
template <typename Check>
void
forEveryWorkloadAndMachine(Check check)
{
    Rng rng(26);
    for (const char *spec : kMachines) {
        auto machine = tryParseMachineSpec(spec);
        ASSERT_TRUE(machine.ok()) << spec;
        const int clusters = (*machine)->numClusters();
        for (const auto &workload : allWorkloads()) {
            SCOPED_TRACE(workload.name + " on " + spec);
            DependenceGraph graph = workload.build(clusters, clusters);
            remapPreplacedForMachine(graph, **machine);
            check(graph, **machine, rng);
        }
    }
}

TEST(ListEstimate, PccModelIsExactBelowTheBound)
{
    forEveryWorkloadAndMachine([](const DependenceGraph &graph,
                                  const MachineModel &machine, Rng &rng) {
        expectBoundContract<PccIssueModel>(graph, machine, rng, machine);
    });
}

TEST(ListEstimate, RawccModelIsExactBelowTheBound)
{
    forEveryWorkloadAndMachine([](const DependenceGraph &graph,
                                  const MachineModel &machine, Rng &rng) {
        expectBoundContract<RawccIssueModel>(graph, machine, rng,
                                             machine.numClusters());
    });
}

TEST(ListEstimate, PccModelMatchesHeapReference)
{
    forEveryWorkloadAndMachine([](const DependenceGraph &graph,
                                  const MachineModel &machine, Rng &rng) {
        expectMatchesHeapReference<PccIssueModel>(graph, machine, rng,
                                                  machine);
    });
}

TEST(ListEstimate, RawccModelMatchesHeapReference)
{
    forEveryWorkloadAndMachine([](const DependenceGraph &graph,
                                  const MachineModel &machine, Rng &rng) {
        expectMatchesHeapReference<RawccIssueModel>(graph, machine, rng,
                                                    machine.numClusters());
    });
}

/** An issue model that breaks the bucket queue's precondition: an
 *  instruction finishes in the cycle it becomes ready. */
class ZeroLatencyIssueModel
{
  public:
    explicit ZeroLatencyIssueModel(const DependenceGraph &) {}
    void reset() {}
    int finish(InstrId, int, int ready) { return ready; }
};

TEST(ListEstimateDeathTest, FinishAtTheReadyCycleIsAnInvariantViolation)
{
    const DependenceGraph graph = allWorkloads().front().build(1, 1);
    ASSERT_FALSE(graph.edges().empty());
    ListEstimator<ZeroLatencyIssueModel> estimate(graph, 0);
    const std::vector<int> one_cluster(graph.numInstructions(), 0);
    EXPECT_DEATH(estimate(one_cluster), "finish must exceed ready");
}

} // namespace
} // namespace csched
