/**
 * @file
 * Cross-module integration and property tests: every scheduling
 * algorithm, on every workload, on several machines, must produce a
 * checker-clean schedule whose makespan respects the fundamental
 * bounds.  Parameterised over (workload x machine family x algorithm).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "eval/convergence_trace.hh"
#include "eval/experiment.hh"
#include "eval/speedup.hh"
#include "ir/graph_algorithms.hh"
#include "machine/clustered_vliw.hh"
#include "machine/raw_machine.hh"
#include "sched/schedule_checker.hh"
#include "workloads/random_dag.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

struct Combo
{
    std::string workload;
    bool raw = false;  // false = clustered VLIW
    std::string algorithm = "convergent";
};

std::string
comboName(const ::testing::TestParamInfo<Combo> &info)
{
    std::string name = info.param.workload;
    for (char &ch : name)
        if (ch == '-')
            ch = '_';
    name += info.param.raw ? "_raw" : "_vliw";
    name += "_" + info.param.algorithm;
    return name;
}

class ScheduleEverything : public ::testing::TestWithParam<Combo>
{
  protected:
    std::unique_ptr<MachineModel>
    makeMachine() const
    {
        if (GetParam().raw) {
            return std::make_unique<RawMachine>(2, 2);
        }
        return std::make_unique<ClusteredVliwMachine>(4);
    }
};

TEST_P(ScheduleEverything, LegalScheduleWithSaneMakespan)
{
    const auto machine = makeMachine();
    const auto &spec = findWorkload(GetParam().workload);
    const auto graph = spec.build(machine->numClusters(),
                                  machine->numClusters());
    const auto algorithm =
        makeAlgorithm(*parseAlgorithmSpec(GetParam().algorithm),
                      *machine);

    // runAndCheck is fatal on checker violations.
    const auto result = runAndCheck(*algorithm, graph, *machine);

    // Lower bound: the critical path.
    EXPECT_GE(result.makespan, graph.criticalPathLength());
    // Upper bound: fully serial execution plus a generous comm term.
    EXPECT_LE(result.makespan,
              totalWork(graph) + 8 * graph.numInstructions());
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> out;
    for (const auto &name : vliwSuiteNames())
        for (const char *algorithm : {"convergent", "uas", "pcc"})
            out.push_back({name, false, algorithm});
    for (const auto &name : rawSuiteNames())
        for (const char *algorithm : {"convergent", "rawcc"})
            out.push_back({name, true, algorithm});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Suites, ScheduleEverything,
                         ::testing::ValuesIn(allCombos()), comboName);

class RandomDagProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomDagProperty, AllSchedulersLegalOnRandomGraphs)
{
    RandomDagOptions options;
    options.seed = static_cast<uint64_t>(GetParam());
    options.numInstructions = 60 + 20 * GetParam();
    options.width = 3 + GetParam();
    options.banks = 4;
    options.preplaceClusters = 4;
    const auto graph = makeRandomDag(options);

    const ClusteredVliwMachine vliw(4);
    for (const char *name : {"convergent", "uas", "pcc", "rawcc"}) {
        const auto algorithm =
            makeAlgorithm(*parseAlgorithmSpec(name), vliw);
        const auto result = runAndCheck(*algorithm, graph, vliw);
        EXPECT_GE(result.makespan, graph.criticalPathLength());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty,
                         ::testing::Range(1, 7));

TEST(Speedup, SingleClusterBaselineMatchesDirectRun)
{
    const ClusteredVliwMachine vliw(4);
    const auto &spec = findWorkload("vvmul");
    const int baseline = singleClusterMakespan(spec, vliw);
    EXPECT_GT(baseline, 0);
    // Speedup of the single-cluster algorithm on the one-cluster
    // machine is exactly 1 by construction.
    const auto single = vliw.makeSingleCluster();
    const auto algorithm =
        makeAlgorithm(*parseAlgorithmSpec("single"), *single);
    const auto graph = spec.build(4, 1);
    const auto result = runAndCheck(*algorithm, graph, *single);
    EXPECT_EQ(result.makespan, baseline);
}

TEST(Speedup, MultiClusterBeatsOneClusterOnParallelKernel)
{
    const ClusteredVliwMachine vliw(4);
    const auto &spec = findWorkload("vvmul");
    const auto algorithm =
        makeAlgorithm(*parseAlgorithmSpec("convergent"), vliw);
    EXPECT_GT(speedupOf(spec, vliw, *algorithm), 1.5);
}

TEST(Speedup, SerialKernelGainsLittle)
{
    const auto raw = RawMachine::withTiles(16);
    const auto &spec = findWorkload("sha");
    const auto algorithm =
        makeAlgorithm(*parseAlgorithmSpec("convergent"), raw);
    const double speedup = speedupOf(spec, raw, *algorithm);
    EXPECT_GT(speedup, 0.5);
    EXPECT_LT(speedup, 4.0);
}

TEST(ConvergenceTrace, SpatialStepsExcludeTemporalPasses)
{
    const ClusteredVliwMachine vliw(4);
    const ConvergentAlgorithm conv(vliw);
    const auto graph = findWorkload("mxm").build(4, 4);
    const auto result = conv.run(graph);
    const auto steps = spatialSteps(result.trace);
    EXPECT_LT(steps.size(), result.trace.size());
    for (const auto &step : steps) {
        EXPECT_FALSE(step.temporalOnly);
        EXPECT_NE(step.pass, "INITTIME");
        EXPECT_NE(step.pass, "EMPHCP");
    }
}

TEST(ConvergenceTrace, LatePassesQuiesce)
{
    // The headline convergence property (Figures 7/9): by the end of
    // the pipeline, passes change few preferred clusters.
    const auto raw = RawMachine::withTiles(16);
    const ConvergentAlgorithm conv(raw);
    const auto graph = findWorkload("mxm").build(16, 16);
    const auto steps = spatialSteps(conv.run(graph).trace);
    ASSERT_GE(steps.size(), 3u);
    const double first_half = std::max(steps[0].fractionChanged,
                                       steps[1].fractionChanged);
    EXPECT_LT(steps.back().fractionChanged, first_half);
    EXPECT_LT(steps.back().fractionChanged, 0.2);
}

TEST(Experiment, RunAndCheckReportsTimings)
{
    const ClusteredVliwMachine vliw(4);
    const auto algorithm = makeAlgorithm(*parseAlgorithmSpec("uas"), vliw);
    const auto graph = findWorkload("fir").build(4, 4);
    const auto result = runAndCheck(*algorithm, graph, vliw);
    EXPECT_EQ(result.algorithm, "UAS");
    EXPECT_EQ(result.instructions, graph.numInstructions());
    EXPECT_GE(result.seconds, 0.0);
    EXPECT_LT(result.seconds, 60.0);
}

TEST(Experiment, ConvergentBeatsUasOnVliwSuite)
{
    // The paper's headline VLIW claim (Figure 8), in relaxed form:
    // convergent's geomean speedup exceeds UAS's.
    const ClusteredVliwMachine vliw(4);
    double conv_product = 1.0;
    double uas_product = 1.0;
    for (const auto &name : vliwSuiteNames()) {
        const auto &spec = findWorkload(name);
        const auto conv =
            makeAlgorithm(*parseAlgorithmSpec("convergent"), vliw);
        const auto uas = makeAlgorithm(*parseAlgorithmSpec("uas"), vliw);
        conv_product *= speedupOf(spec, vliw, *conv);
        uas_product *= speedupOf(spec, vliw, *uas);
    }
    EXPECT_GT(conv_product, uas_product);
}

} // namespace
} // namespace csched
