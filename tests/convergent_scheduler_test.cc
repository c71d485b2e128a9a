/**
 * @file
 * End-to-end tests for the convergent scheduler driver: sequences,
 * extraction, correctness clamping, convergence tracing, determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "convergent/convergent_scheduler.hh"
#include "convergent/pass_registry.hh"
#include "convergent/preference_matrix.hh"
#include "convergent/sequences.hh"
#include "ir/graph_algorithms.hh"
#include "ir/graph_builder.hh"
#include "machine/clustered_vliw.hh"
#include "machine/raw_machine.hh"
#include "machine/single_cluster.hh"
#include "sched/schedule_checker.hh"
#include "support/fault_injection.hh"
#include "support/status.hh"
#include "support/str.hh"
#include "workloads/random_dag.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

DependenceGraph
smallKernel(int banks)
{
    return makeJacobi(banks, banks);
}

TEST(Sequences, MatchTableOne)
{
    EXPECT_EQ(rawPassSequence(),
              "INITTIME,PLACEPROP,LOAD,PLACE,PATH,PATHPROP,LEVEL,"
              "PATHPROP,COMM,PATHPROP,EMPHCP");
    EXPECT_EQ(vliwPassSequence(),
              "INITTIME,NOISE,FIRST,PATH,COMM,PLACE,PLACEPROP,COMM,"
              "EMPHCP");
}

TEST(ConvergentScheduler, PassNamesFollowSequence)
{
    const ClusteredVliwMachine vliw(4);
    const ConvergentScheduler scheduler(vliw, "INITTIME,PLACE,COMM");
    const auto names = scheduler.passNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "INITTIME");
    EXPECT_EQ(names[2], "COMM");
}

TEST(ConvergentScheduler, ProducesLegalScheduleOnVliw)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, vliw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
}

TEST(ConvergentScheduler, ProducesLegalScheduleOnRaw)
{
    const auto raw = RawMachine::withTiles(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(raw);
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, raw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
}

TEST(ConvergentScheduler, PreplacedInstructionsClampedToHomes)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    for (InstrId id = 0; id < graph.numInstructions(); ++id) {
        const auto &instr = graph.instr(id);
        if (instr.preplaced()) {
            EXPECT_EQ(result.assignment[id], instr.homeCluster);
        }
    }
}

TEST(ConvergentScheduler, TraceCoversEveryPass)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    ASSERT_EQ(result.trace.size(), 9u);  // Table 1(b) length
    for (const auto &step : result.trace) {
        EXPECT_GE(step.fractionChanged, 0.0);
        EXPECT_LE(step.fractionChanged, 1.0);
    }
    EXPECT_EQ(result.trace.front().pass, "INITTIME");
    EXPECT_TRUE(result.trace.front().temporalOnly);
    EXPECT_EQ(result.trace.back().pass, "EMPHCP");
}

TEST(ConvergentScheduler, TemporalOnlyPassesChangeNoClusters)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    for (const auto &step : result.trace) {
        if (step.temporalOnly) {
            EXPECT_DOUBLE_EQ(step.fractionChanged, 0.0);
        }
    }
}

TEST(ConvergentScheduler, DeterministicAcrossRuns)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto first = scheduler.schedule(graph);
    const auto second = scheduler.schedule(graph);
    EXPECT_EQ(first.assignment, second.assignment);
    EXPECT_EQ(first.schedule.makespan(), second.schedule.makespan());
}

TEST(ConvergentScheduler, NoiseSeedChangesVliwOutcome)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    PassParams a = vliwPassParams();
    PassParams b = vliwPassParams();
    b.noiseSeed = a.noiseSeed + 1;
    const ConvergentScheduler first(vliw, vliwPassSequence(), a);
    const ConvergentScheduler second(vliw, vliwPassSequence(), b);
    // Different noise, (almost surely) different assignment somewhere.
    EXPECT_NE(first.schedule(graph).assignment,
              second.schedule(graph).assignment);
}

TEST(ConvergentScheduler, SingleClusterMachineTrivialAssignment)
{
    const ClusteredVliwMachine vliw(1);
    GraphBuilder builder;
    const InstrId a = builder.op(Opcode::IAdd);
    builder.op(Opcode::IAdd, {a});
    const auto graph = builder.build();
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    EXPECT_EQ(result.assignment, (std::vector<int>{0, 0}));
}

TEST(ConvergentScheduler, WorksOnReceiveOpMachines)
{
    // The Figure-1 style abstract machine: receives occupy consumer
    // FUs.  forMachine() selects the VLIW sequence for it.
    const UniformMachine machine(3, 1, 1);
    const auto graph = smallKernel(3);
    const auto scheduler = ConvergentScheduler::forMachine(machine);
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, machine, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
    EXPECT_GE(result.schedule.makespan(),
              graph.criticalPathLength());
}

TEST(ConvergentScheduler, CustomSequenceRuns)
{
    const ClusteredVliwMachine vliw(2);
    const auto graph = smallKernel(2);
    const ConvergentScheduler scheduler(vliw, "INITTIME,PLACE,PLACEPROP");
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, vliw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
}

TEST(ConvergentScheduler, ThrowingPassIsSkippedAndRolledBack)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);

    // The third pass of the VLIW sequence (FIRST) throws mid-run; the
    // scheduler must roll the preference matrix back to its pre-pass
    // state, mark the step skipped, and finish with the remaining
    // passes.
    std::string error;
    const auto plan = FaultPlan::parse("pass.body=fail:nth=3", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    FaultScope faults(&*plan, "degradation-test");
    ScopedFaultScope fault_guard(&faults);

    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, vliw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();

    ASSERT_EQ(result.trace.size(), 9u);
    for (size_t k = 0; k < result.trace.size(); ++k)
        EXPECT_EQ(result.trace[k].skipped, k == 2) << "pass " << k;
    EXPECT_EQ(result.trace[2].pass, "FIRST");
    // Rolled back means *no* preference movement is attributed to the
    // skipped pass.
    EXPECT_DOUBLE_EQ(result.trace[2].fractionChanged, 0.0);
}

/**
 * A buggy pass: mutates every other row -- boosting the last cluster,
 * widening the window with a late slot, renormalizing -- then throws.
 */
class HalfMutatingThrowingPass : public Pass
{
  public:
    std::string name() const override { return "HALFTHROW"; }

    void
    run(PassContext &ctx) override
    {
        auto &weights = ctx.weights;
        const int last = weights.numClusters() - 1;
        for (InstrId i = 0; i < weights.numInstructions(); i += 2) {
            auto row = weights.row(i);
            row.scaleCluster(last, 50.0);
            row.set(weights.numTimes() - 1, last, 0.5);
            row.normalize();
        }
        throw std::runtime_error("pass bug after mutating half the rows");
    }
};

/**
 * Same schedule and trace, bar the skipped steps @p skipped (ascending
 * positions in @p rolled_back's trace).
 */
void
expectSameAsWithout(const ConvergentResult &rolled_back,
                    const ConvergentResult &without,
                    const std::vector<size_t> &skipped,
                    const std::string &what)
{
    EXPECT_EQ(rolled_back.assignment, without.assignment) << what;
    EXPECT_EQ(rolled_back.preferredTime, without.preferredTime) << what;
    EXPECT_EQ(rolled_back.schedule.makespan(),
              without.schedule.makespan())
        << what;
    ASSERT_EQ(rolled_back.trace.size(),
              without.trace.size() + skipped.size())
        << what;
    size_t same_k = 0;
    for (size_t k = 0; k < rolled_back.trace.size(); ++k) {
        const PassStep &step = rolled_back.trace[k];
        const bool skip =
            std::find(skipped.begin(), skipped.end(), k) != skipped.end();
        EXPECT_EQ(step.skipped, skip) << what << ", step " << k;
        if (skip) {
            EXPECT_EQ(step.fractionChanged, 0.0) << what;
            continue;
        }
        const PassStep &same = without.trace[same_k++];
        EXPECT_EQ(step.pass, same.pass) << what << ", step " << k;
        EXPECT_EQ(step.fractionChanged, same.fractionChanged)
            << what << ", step " << k;
    }
}

TEST(ConvergentScheduler, ThrowingPassRollsBackToTheScheduleWithoutIt)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = makeRandomDag({.numInstructions = 400,
                                      .width = 16,
                                      .banks = 4,
                                      .preplaceClusters = 4,
                                      .seed = 17});
    const size_t position = 3;  // after INITTIME, NOISE, FIRST
    auto passes = parsePassSequence(vliwPassSequence());
    passes.insert(passes.begin() + position,
                  std::make_unique<HalfMutatingThrowingPass>());
    const ConvergentScheduler faulty(vliw, std::move(passes),
                                     vliwPassParams());
    const auto rolled_back = faulty.schedule(graph);
    ASSERT_EQ(rolled_back.trace[position].pass, "HALFTHROW");
    const auto without = ConvergentScheduler::forMachine(vliw).schedule(graph);
    expectSameAsWithout(rolled_back, without, {position}, "HALFTHROW");
}

/**
 * Boosts every row's preferred slot, normalizes, then boosts it once
 * more.  The sloppy variant stops there, leaving each row scaled after
 * its last normalize(); the tidy one normalizes again.
 */
class BoostAfterNormalizePass : public Pass
{
  public:
    explicit BoostAfterNormalizePass(bool tidy) : tidy_(tidy) {}

    std::string name() const override { return tidy_ ? "TIDY" : "SLOPPY"; }

    void
    run(PassContext &ctx) override
    {
        auto &weights = ctx.weights;
        for (InstrId i = 0; i < weights.numInstructions(); ++i) {
            const int t = weights.preferredTime(i);
            const int c = weights.runnerUpCluster(i);
            auto row = weights.row(i);
            row.scaleSlot(t, c, 3.0);
            row.normalize();
            row.scaleSlot(t, c, 40.0);
            if (tidy_)
                row.normalize();
        }
    }

  private:
    bool tidy_;
};

TEST(ConvergentScheduler, ScaleAfterTheLastNormalizeIsWalkedAndHealed)
{
    // The sloppy pass's rows are unverified, so the guard walks them,
    // finds the sums off, and heals them with the one renormalization
    // the tidy pass performs itself: same weights, same schedule, the
    // same rows counted -- and nothing skipped.
    const ClusteredVliwMachine vliw(4);
    const auto graph = makeRandomDag({.numInstructions = 300,
                                      .width = 12,
                                      .banks = 4,
                                      .preplaceClusters = 4,
                                      .seed = 5});
    const size_t position = 3;  // after INITTIME, NOISE, FIRST
    const auto run = [&](bool tidy) {
        auto passes = parsePassSequence(vliwPassSequence());
        passes.insert(passes.begin() + position,
                      std::make_unique<BoostAfterNormalizePass>(tidy));
        return ConvergentScheduler(vliw, std::move(passes),
                                   vliwPassParams())
            .schedule(graph);
    };
    const ConvergentResult sloppy = run(false);
    const ConvergentResult tidy = run(true);
    EXPECT_EQ(sloppy.assignment, tidy.assignment);
    EXPECT_EQ(sloppy.preferredTime, tidy.preferredTime);
    EXPECT_EQ(sloppy.schedule.makespan(), tidy.schedule.makespan());
    ASSERT_EQ(sloppy.trace.size(), tidy.trace.size());
    for (size_t k = 0; k < sloppy.trace.size(); ++k) {
        EXPECT_FALSE(sloppy.trace[k].skipped) << "step " << k;
        EXPECT_EQ(sloppy.trace[k].fractionChanged,
                  tidy.trace[k].fractionChanged)
            << "step " << k;
    }
    EXPECT_EQ(sloppy.trace[position].pass, "SLOPPY");
    EXPECT_GT(sloppy.trace[position].fractionChanged, 0.0);
}

TEST(ConvergentScheduler, FailingAnyPassEqualsTheSequenceWithoutIt)
{
    // pass.body fires after the pass ran, so every position discards
    // a pass that really mutated the matrix.  The double NOISE pins
    // the noise stream: a failed NOISE must not shift the draws of
    // the NOISE after it.
    const ClusteredVliwMachine vliw(4);
    const auto raw = RawMachine::withTiles(4);
    struct Family
    {
        const MachineModel &machine;
        std::string sequence;
        PassParams params;
    };
    const Family families[] = {
        {vliw, vliwPassSequence(), vliwPassParams()},
        {raw, rawPassSequence(), rawPassParams()},
        {vliw,
         "INITTIME,NOISE,NOISE,FIRST,PATH,COMM,PLACE,PLACEPROP,COMM,EMPHCP",
         vliwPassParams()},
    };
    for (const Family &family : families) {
        const auto graph = smallKernel(4);
        const std::vector<std::string> names =
            split(family.sequence, ',');
        for (size_t k = 0; k < names.size(); ++k) {
            std::string without_k;
            for (size_t j = 0; j < names.size(); ++j)
                if (j != k)
                    without_k += (without_k.empty() ? "" : ",") + names[j];
            const std::string what =
                family.sequence + " without step " + std::to_string(k);
            const auto without =
                ConvergentScheduler(family.machine, without_k,
                                    family.params)
                    .schedule(graph);

            std::string error;
            const auto plan = FaultPlan::parse(
                "pass.body=fail:nth=" + std::to_string(k + 1), &error);
            ASSERT_TRUE(plan.has_value()) << error;
            FaultScope faults(&*plan, "rollback-sweep");
            ScopedFaultScope fault_guard(&faults);
            const auto rolled_back =
                ConvergentScheduler(family.machine, family.sequence,
                                    family.params)
                    .schedule(graph);
            expectSameAsWithout(rolled_back, without, {k}, what);
        }
    }
}

TEST(ConvergentScheduler, TwoFailuresInOneRunEqualTheSequenceWithoutBoth)
{
    // The second failure rebuilds without the first one too, and a
    // rebuild hits no pass.body: the 3rd and 5th hits are FIRST and
    // the first COMM.
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto without =
        ConvergentScheduler(vliw, "INITTIME,NOISE,PATH,PLACE,PLACEPROP,"
                                  "COMM,EMPHCP",
                            vliwPassParams())
            .schedule(graph);

    std::string error;
    const auto plan = FaultPlan::parse(
        "pass.body=fail:nth=3;pass.body=fail:nth=5", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    FaultScope faults(&*plan, "two-failures");
    ScopedFaultScope fault_guard(&faults);
    const auto rebuilt =
        ConvergentScheduler::forMachine(vliw).schedule(graph);
    expectSameAsWithout(rebuilt, without, {2, 4}, "FIRST and COMM");
}

TEST(ConvergentScheduler, SkippedPassLeavesNoTraceByDefault)
{
    // Without a fault, no step is marked skipped (the report layer
    // relies on this: the "skipped" key is emitted only when true, so
    // default report bytes are unchanged).
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    for (const auto &step : result.trace)
        EXPECT_FALSE(step.skipped) << step.pass;
}

TEST(ConvergentScheduler, CancellationIsNotSwallowedByDegradation)
{
    // Pass-level degradation absorbs pass *bugs*, never cooperative
    // cancellation: a deadline expiry inside a pass must still unwind
    // the whole schedule() call so the job can time out.
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);

    std::string error;
    const auto plan =
        FaultPlan::parse("pass.body=timeout:nth=2", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    FaultScope faults(&*plan, "degradation-test");
    ScopedFaultScope fault_guard(&faults);

    try {
        scheduler.schedule(graph);
        FAIL() << "an injected timeout must escape the pass guard";
    } catch (const StatusError &caught) {
        EXPECT_EQ(caught.status.code(), ErrorCode::Timeout);
    }
}

TEST(WeightInvariants, AcceptAFreshAndANormalizedMatrix)
{
    PreferenceMatrix weights(3, 4, 2);
    EXPECT_TRUE(checkWeightInvariants(weights, "INITTIME").ok());

    auto row = weights.row(1);
    row.scaleCluster(0, 0.25);
    row.normalize();
    EXPECT_TRUE(checkWeightInvariants(weights, "PLACE").ok());
    // A row no kernel wrote reads the in-range template: the guard
    // trusts it without a walk.
    EXPECT_TRUE(weights.verified(0));
    EXPECT_TRUE(weights.verified(2));
}

TEST(WeightInvariants, ScalingWithoutNormalizingIsCaughtAndHealable)
{
    // A buggy pass that scales a row without restoring the sum-to-one
    // invariant: the guard flags it, and one renormalization -- the
    // scheduler's healing step -- restores the invariants.
    PreferenceMatrix weights(2, 3, 2);
    weights.row(0).scaleCluster(1, 3.0);
    const Status broken = checkWeightInvariants(weights, "PLACE");
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(broken.code(), ErrorCode::CheckFailed);
    EXPECT_NE(broken.message().find("PLACE"), std::string::npos);

    weights.normalizeAll();
    EXPECT_TRUE(checkWeightInvariants(weights, "PLACE").ok());
}

TEST(WeightInvariants, NonFiniteWeightsCannotBeHealed)
{
    PreferenceMatrix weights(2, 2, 2);
    weights.row(1).set(0, 1, INFINITY);
    const Status broken = checkWeightInvariants(weights, "COMM");
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(broken.code(), ErrorCode::CheckFailed);
    EXPECT_NE(broken.message().find("COMM"), std::string::npos);

    // Renormalizing an infinite row leaves non-finite weights behind
    // (inf/inf), so the scheduler's one healing attempt still fails
    // and the job is failed with the pass named.
    weights.normalizeAll();
    EXPECT_FALSE(checkWeightInvariants(weights, "COMM").ok());
}

} // namespace
} // namespace csched
