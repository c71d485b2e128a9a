/**
 * @file
 * Unit and property tests for the preference matrix: the paper's
 * invariants, marginals, preferred slots, confidence, and the basic
 * operations of Section 3, exercised through the batched RowView API,
 * plus the row-level undo log behind pass rollback, the pristine
 * template, and the guard verdict normalize() records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "convergent/convergent_scheduler.hh"
#include "convergent/preference_matrix.hh"
#include "machine/machine_spec.hh"
#include "support/rng.hh"

namespace csched {
namespace {

/** Sum of all weights of instruction @p i via the compat read path. */
double
rowSum(const PreferenceMatrix &w, InstrId i)
{
    double sum = 0.0;
    for (int t = 0; t < w.numTimes(); ++t)
        for (int c = 0; c < w.numClusters(); ++c)
            sum += w.at(i, t, c);
    return sum;
}

TEST(PreferenceMatrix, StartsUniformAndNormalised)
{
    const PreferenceMatrix w(3, 5, 4);
    const double expected = 1.0 / 20.0;
    for (InstrId i = 0; i < 3; ++i) {
        EXPECT_NEAR(rowSum(w, i), 1.0, 1e-12);
        EXPECT_NEAR(w.at(i, 0, 0), expected, 1e-12);
        EXPECT_NEAR(w.at(i, 4, 3), expected, 1e-12);
    }
}

TEST(PreferenceMatrix, MarginalsMatchBruteForce)
{
    PreferenceMatrix w(1, 4, 3);
    Rng rng(3);
    auto row = w.row(0);
    for (int t = 0; t < 4; ++t)
        for (int c = 0; c < 3; ++c)
            row.set(t, c, rng.uniform());
    for (int c = 0; c < 3; ++c) {
        double expected = 0.0;
        for (int t = 0; t < 4; ++t)
            expected += w.at(0, t, c);
        EXPECT_NEAR(w.spaceMarginal(0, c), expected, 1e-12);
    }
    for (int t = 0; t < 4; ++t) {
        double expected = 0.0;
        for (int c = 0; c < 3; ++c)
            expected += w.at(0, t, c);
        EXPECT_NEAR(w.timeMarginal(0, t), expected, 1e-12);
    }
}

TEST(PreferenceMatrix, ScaleClusterAffectsWholeColumn)
{
    PreferenceMatrix w(1, 3, 2);
    w.row(0).scaleCluster(1, 4.0);
    for (int t = 0; t < 3; ++t) {
        EXPECT_NEAR(w.at(0, t, 1), 4.0 / 6.0, 1e-12);
        EXPECT_NEAR(w.at(0, t, 0), 1.0 / 6.0, 1e-12);
    }
    EXPECT_EQ(w.preferredCluster(0), 1);
}

TEST(PreferenceMatrix, CachedPreferredClusterFollowsFusedUpdates)
{
    PreferenceMatrix w(1, 3, 3);
    w.row(0).scaleCluster(0, 2.0);
    w.row(0).normalize();  // fills the sums and caches the argmax
    EXPECT_EQ(w.preferredCluster(0), 0);
    w.row(0).scaleCluster(2, 5.0);  // invalidates both; the read refills
    EXPECT_EQ(w.preferredCluster(0), 2);
    const double factors[3] = {1.0, 9.0, 1.0};
    w.row(0).scaleClusters(factors);
    EXPECT_EQ(w.preferredCluster(0), 1);
    w.row(0).zeroCluster(1);
    EXPECT_EQ(w.preferredCluster(0), 2);
    EXPECT_EQ(w.runnerUpCluster(0), 0);
}

TEST(PreferenceMatrix, ScaleClustersAppliesPerClusterFactors)
{
    PreferenceMatrix w(1, 2, 3);
    const double factors[3] = {1.0, 2.0, 4.0};
    w.row(0).scaleClusters(factors);
    for (int t = 0; t < 2; ++t) {
        EXPECT_NEAR(w.at(0, t, 0), 1.0 / 6.0, 1e-12);
        EXPECT_NEAR(w.at(0, t, 1), 2.0 / 6.0, 1e-12);
        EXPECT_NEAR(w.at(0, t, 2), 4.0 / 6.0, 1e-12);
    }
    EXPECT_EQ(w.preferredCluster(0), 2);
}

TEST(PreferenceMatrix, ScaleTimeAffectsWholeRow)
{
    PreferenceMatrix w(1, 3, 2);
    w.row(0).scaleTime(2, 5.0);
    EXPECT_EQ(w.preferredTime(0), 2);
    EXPECT_NEAR(w.at(0, 2, 0), 5.0 / 6.0, 1e-12);
}

TEST(PreferenceMatrix, NormalizeRestoresInvariant)
{
    PreferenceMatrix w(1, 2, 2);
    auto row = w.row(0);
    row.set(0, 0, 3.0);
    row.set(1, 1, 1.0);
    row.normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    EXPECT_GT(w.at(0, 0, 0), w.at(0, 1, 1));
}

TEST(PreferenceMatrix, NormalizeOfAllZeroResetsToUniform)
{
    PreferenceMatrix w(1, 2, 2);
    auto row = w.row(0);
    for (int t = 0; t < 2; ++t)
        for (int c = 0; c < 2; ++c)
            row.set(t, c, 0.0);
    row.normalize();
    EXPECT_NEAR(w.at(0, 1, 1), 0.25, 1e-12);
}

TEST(PreferenceMatrix, NormalizeOfCleanRowIsANoOp)
{
    PreferenceMatrix w(1, 3, 2);
    auto row = w.row(0);
    row.scaleCluster(1, 3.0);
    row.normalize();
    const double before = w.at(0, 1, 1);
    row.normalize();  // clean: must not rescale
    EXPECT_EQ(w.at(0, 1, 1), before);
    row.scaleCluster(1, 2.0);  // mutation clears the clean flag
    row.normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
}

TEST(PreferenceMatrix, RestrictTimeWindowZeroesOutsideSlots)
{
    PreferenceMatrix w(1, 6, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(2, 5);
    EXPECT_EQ(row.windowLo(), 2);
    EXPECT_EQ(row.windowHi(), 5);
    for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(w.at(0, 0, c), 0.0);
        EXPECT_EQ(w.at(0, 1, c), 0.0);
        EXPECT_EQ(w.at(0, 5, c), 0.0);
        EXPECT_GT(w.at(0, 2, c), 0.0);
        EXPECT_GT(w.at(0, 4, c), 0.0);
    }
    row.normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    // Marginals outside the window are exactly zero.
    EXPECT_EQ(w.timeMarginal(0, 0), 0.0);
    EXPECT_GT(w.timeMarginal(0, 3), 0.0);
}

TEST(PreferenceMatrix, EmptyWindowResetsToUniformOnNormalize)
{
    PreferenceMatrix w(1, 4, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(3, 3);  // empty: whole row squashed
    EXPECT_NEAR(rowSum(w, 0), 0.0, 1e-300);
    row.normalize();
    EXPECT_NEAR(w.at(0, 0, 0), 1.0 / 8.0, 1e-12);
    EXPECT_EQ(row.windowLo(), 0);
    EXPECT_EQ(row.windowHi(), 4);
}

TEST(PreferenceMatrix, SetOutsideWindowWidensIt)
{
    PreferenceMatrix w(1, 8, 1);
    auto row = w.row(0);
    row.restrictTimeWindow(2, 4);
    row.set(6, 0, 0.5);
    EXPECT_LE(row.windowLo(), 2);
    EXPECT_GE(row.windowHi(), 7);
    EXPECT_NEAR(w.timeMarginal(0, 6), 0.5, 1e-12);
    EXPECT_EQ(w.timeMarginal(0, 5), 0.0);
}

TEST(PreferenceMatrix, ZeroClusterClearsColumn)
{
    PreferenceMatrix w(1, 3, 2);
    w.row(0).zeroCluster(0);
    for (int t = 0; t < 3; ++t)
        EXPECT_EQ(w.at(0, t, 0), 0.0);
    EXPECT_EQ(w.spaceMarginal(0, 0), 0.0);
    EXPECT_EQ(w.preferredCluster(0), 1);
}

TEST(PreferenceMatrix, AddPositiveNoiseSkipsZeros)
{
    PreferenceMatrix w(1, 4, 2);
    Rng rng(11);
    auto row = w.row(0);
    row.restrictTimeWindow(1, 3);
    row.zeroCluster(0);
    row.addPositiveNoise(rng, 0.5);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(w.at(0, t, 0), 0.0);  // zeros stay zero
    EXPECT_GT(w.at(0, 1, 1), 1.0 / 8.0);  // positives grew
    EXPECT_EQ(w.at(0, 0, 1), 0.0);
}

TEST(PreferenceMatrix, PreferredAndRunnerUp)
{
    PreferenceMatrix w(1, 1, 3);
    auto row = w.row(0);
    row.set(0, 0, 0.2);
    row.set(0, 1, 0.5);
    row.set(0, 2, 0.3);
    EXPECT_EQ(w.preferredCluster(0), 1);
    EXPECT_EQ(w.runnerUpCluster(0), 2);
    EXPECT_NEAR(w.confidence(0), 0.5 / 0.3, 1e-12);
}

TEST(PreferenceMatrix, ConfidenceOfSingleClusterMachineIsOne)
{
    const PreferenceMatrix w(1, 4, 1);
    EXPECT_EQ(w.runnerUpCluster(0), 0);
    EXPECT_DOUBLE_EQ(w.confidence(0), 1.0);
}

TEST(PreferenceMatrix, ConfidenceWithZeroRunnerUpIsLargeFinite)
{
    PreferenceMatrix w(1, 1, 2);
    auto row = w.row(0);
    row.set(0, 0, 1.0);
    row.set(0, 1, 0.0);
    EXPECT_GT(w.confidence(0), 1e6);
}

TEST(PreferenceMatrix, BlendIsConvexCombination)
{
    PreferenceMatrix w(2, 1, 2);
    auto a = w.row(0);
    auto b = w.row(1);
    a.set(0, 0, 1.0);
    a.set(0, 1, 0.0);
    b.set(0, 0, 0.0);
    b.set(0, 1, 1.0);
    a.blendFrom(b, 0.25);  // keep 25% of own weights
    EXPECT_NEAR(w.at(0, 0, 0), 0.25, 1e-12);
    EXPECT_NEAR(w.at(0, 0, 1), 0.75, 1e-12);
    // The source row is untouched.
    EXPECT_NEAR(w.at(1, 0, 1), 1.0, 1e-12);
}

TEST(PreferenceMatrix, BlendOfNormalisedRowsStaysNormalised)
{
    PreferenceMatrix w(2, 3, 3);
    auto a = w.row(0);
    auto b = w.row(1);
    a.scaleCluster(0, 9.0);
    a.normalize();
    b.scaleCluster(2, 9.0);
    b.normalize();
    a.blendFrom(b, 0.5);
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
}

TEST(PreferenceMatrix, BlendWidensWindowToUnion)
{
    PreferenceMatrix w(2, 8, 1);
    auto a = w.row(0);
    auto b = w.row(1);
    a.restrictTimeWindow(0, 3);
    a.normalize();
    b.restrictTimeWindow(5, 8);
    b.normalize();
    a.blendFrom(b, 0.5);
    EXPECT_LE(a.windowLo(), 0);
    EXPECT_GE(a.windowHi(), 8);
    EXPECT_GT(w.at(0, 6, 0), 0.0);  // mass arrived from the source
}

TEST(PreferenceMatrix, PreferredTimeFollowsMass)
{
    PreferenceMatrix w(1, 6, 1);
    w.row(0).scaleTime(5, 50.0);
    EXPECT_EQ(w.preferredTime(0), 5);
}

TEST(PreferenceMatrix, PreferredVectorsMatchScalars)
{
    PreferenceMatrix w(3, 2, 2);
    w.row(1).scaleCluster(1, 10.0);
    w.row(2).scaleTime(1, 10.0);
    const auto clusters = w.preferredClusters();
    const auto times = w.preferredTimes();
    for (InstrId i = 0; i < 3; ++i) {
        EXPECT_EQ(clusters[i], w.preferredCluster(i));
        EXPECT_EQ(times[i], w.preferredTime(i));
    }
}

TEST(PreferenceMatrix, WindowSpanExposesContiguousClusterBlock)
{
    PreferenceMatrix w(1, 6, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(1, 4);
    row.normalize();
    const PreferenceMatrix &cw = w;
    const auto view = cw.row(0);
    const auto span = view.windowSpan(1);
    ASSERT_EQ(span.size(), 3u);
    for (size_t k = 0; k < span.size(); ++k)
        EXPECT_EQ(span[k],
                  w.at(0, view.windowLo() + static_cast<int>(k), 1));
}

TEST(PreferenceMatrix, CopyIsIndependent)
{
    PreferenceMatrix w(1, 4, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(1, 3);
    row.normalize();
    PreferenceMatrix copy = w;
    copy.row(0).scaleCluster(0, 100.0);
    copy.row(0).normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    EXPECT_EQ(w.at(0, 1, 0), copy.at(0, 1, 0) == w.at(0, 1, 0)
                                 ? copy.at(0, 1, 0)
                                 : w.at(0, 1, 0));
    // The copy preserved the window bookkeeping.
    const PreferenceMatrix &cc = copy;
    EXPECT_EQ(cc.row(0).windowLo(), 1);
    EXPECT_EQ(cc.row(0).windowHi(), 3);
    EXPECT_EQ(copy.at(0, 0, 0), 0.0);
}

// ---- undo log --------------------------------------------------------

uint64_t
bits(double value)
{
    return std::bit_cast<uint64_t>(value);
}

/** Every weight, window and marginal of @p got equals @p want bitwise. */
void
expectSameState(const PreferenceMatrix &got, const PreferenceMatrix &want,
                const std::string &what)
{
    for (InstrId i = 0; i < want.numInstructions(); ++i) {
        EXPECT_EQ(got.row(i).windowLo(), want.row(i).windowLo())
            << what << ", row " << i;
        EXPECT_EQ(got.row(i).windowHi(), want.row(i).windowHi())
            << what << ", row " << i;
        for (int t = 0; t < want.numTimes(); ++t) {
            EXPECT_EQ(bits(got.timeMarginal(i, t)),
                      bits(want.timeMarginal(i, t)))
                << what << ", row " << i << ", time " << t;
            for (int c = 0; c < want.numClusters(); ++c)
                EXPECT_EQ(bits(got.at(i, t, c)), bits(want.at(i, t, c)))
                    << what << ", row " << i << ", (" << t << ", " << c
                    << ")";
        }
        for (int c = 0; c < want.numClusters(); ++c)
            EXPECT_EQ(bits(got.spaceMarginal(i, c)),
                      bits(want.spaceMarginal(i, c)))
                << what << ", row " << i << ", cluster " << c;
    }
}

/**
 * Four rows in the states a pass can meet: 0 as constructed, 1
 * narrowed and normalized (clean), 2 scaled but not normalized, 3
 * narrowed, normalized, then scaled.
 */
PreferenceMatrix
undoFixture()
{
    PreferenceMatrix w(4, 8, 3);
    w.row(1).restrictTimeWindow(2, 6);
    w.row(1).scaleCluster(2, 3.0);
    w.row(1).normalize();
    w.row(2).scaleTime(5, 4.0);
    w.row(3).restrictTimeWindow(1, 4);
    w.row(3).normalize();
    w.row(3).scaleCluster(0, 0.5);
    return w;
}

struct Mutator
{
    const char *name;
    void (*apply)(PreferenceMatrix &w, InstrId i);
};

const Mutator kMutators[] = {
    {"set (widening)",
     [](PreferenceMatrix &w, InstrId i) { w.row(i).set(7, 1, 0.5); }},
    {"scaleSlot",
     [](PreferenceMatrix &w, InstrId i) { w.row(i).scaleSlot(3, 0, 7.0); }},
    {"scaleCluster",
     [](PreferenceMatrix &w, InstrId i) {
         w.row(i).scaleCluster(1, 9.0);
     }},
    {"scaleClusters",
     [](PreferenceMatrix &w, InstrId i) {
         const double factors[3] = {0.5, 2.0, 0.0};
         w.row(i).scaleClusters(factors);
     }},
    {"scaleTime",
     [](PreferenceMatrix &w, InstrId i) { w.row(i).scaleTime(2, 5.0); }},
    {"zeroCluster",
     [](PreferenceMatrix &w, InstrId i) { w.row(i).zeroCluster(0); }},
    {"restrictTimeWindow",
     [](PreferenceMatrix &w, InstrId i) {
         w.row(i).restrictTimeWindow(3, 5);
     }},
    {"addPositiveNoise",
     [](PreferenceMatrix &w, InstrId i) {
         Rng rng(5);
         w.row(i).addPositiveNoise(rng, 0.3);
     }},
    {"blendFrom (widening)",
     [](PreferenceMatrix &w, InstrId i) {
         w.row(i).blendFrom(w.row((i + 1) % 4), 0.25);
     }},
    {"normalize",
     [](PreferenceMatrix &w, InstrId i) { w.row(i).normalize(); }},
    {"all-zero reset to uniform",
     [](PreferenceMatrix &w, InstrId i) {
         w.row(i).restrictTimeWindow(4, 4);
         w.row(i).normalize();
     }},
    {"mutated twice",
     [](PreferenceMatrix &w, InstrId i) {
         w.row(i).scaleCluster(2, 4.0);
         w.row(i).normalize();
         w.row(i).scaleTime(6, 3.0);
         w.row(i).normalize();
     }},
};

TEST(PreferenceMatrixUndo, RollbackRestoresEveryMutatorExactly)
{
    const PreferenceMatrix base = undoFixture();
    for (const Mutator &mutator : kMutators) {
        for (InstrId i = 0; i < base.numInstructions(); ++i) {
            const std::string what =
                std::string(mutator.name) + " on row " + std::to_string(i);
            PreferenceMatrix w = base;
            w.beginUndo();
            mutator.apply(w, i);
            // Fill the marginal caches with the mutated state, so a
            // rollback that forgot to invalidate them would show.
            for (InstrId k = 0; k < w.numInstructions(); ++k) {
                (void)w.preferredCluster(k);
                (void)w.preferredTime(k);
            }
            // Only the mutated row is logged, and only once; normalize
            // of the already-clean row 1 writes and logs nothing.
            const bool clean_noop =
                i == 1 && std::string(mutator.name) == "normalize";
            EXPECT_EQ(w.touchedRows(),
                      clean_noop ? std::vector<InstrId>{}
                                 : std::vector<InstrId>{i})
                << what;
            w.rollback();
            EXPECT_TRUE(w.touchedRows().empty()) << what;
            expectSameState(w, base, what);

            // The clean flag came back too: the next normalize logs
            // (and rescales) exactly when it would have before.
            PreferenceMatrix reference = base;
            reference.beginUndo();
            reference.row(i).normalize();
            w.beginUndo();
            w.row(i).normalize();
            EXPECT_EQ(w.touchedRows(), reference.touchedRows()) << what;
            expectSameState(w, reference, what + ", then normalize");
        }
    }
}

TEST(PreferenceMatrixUndo, RollbackRestoresManyRowsAndKeepsTheRest)
{
    const PreferenceMatrix base = undoFixture();
    PreferenceMatrix w = base;
    w.beginUndo();
    w.row(2).scaleCluster(0, 3.0);
    w.row(0).restrictTimeWindow(1, 2);
    w.row(2).normalize();
    EXPECT_EQ(w.touchedRows(), (std::vector<InstrId>{2, 0}));
    w.rollback();
    expectSameState(w, base, "two rows rolled back");
}

TEST(PreferenceMatrixUndo, BeginUndoDropsThePreviousScope)
{
    PreferenceMatrix w = undoFixture();
    w.beginUndo();
    w.row(3).scaleCluster(1, 6.0);
    w.row(3).normalize();
    const PreferenceMatrix committed = w;
    w.beginUndo();
    EXPECT_TRUE(w.touchedRows().empty());
    w.rollback();  // nothing logged since the new scope opened
    expectSameState(w, committed, "previous scope kept");
}

TEST(PreferenceMatrixUndo, MutationsOutsideAScopeAreNotLogged)
{
    PreferenceMatrix w(2, 4, 2);
    w.row(0).scaleCluster(1, 2.0);
    EXPECT_TRUE(w.touchedRows().empty());
}

/**
 * Property test: any sequence of the Section-3 operations followed by
 * normalization maintains the invariants.
 */
TEST(PreferenceMatrixProperty, RandomOperationsKeepInvariants)
{
    Rng rng(777);
    for (int round = 0; round < 20; ++round) {
        const int n = 1 + rng.range(6);
        const int times = 1 + rng.range(8);
        const int clusters = 1 + rng.range(5);
        PreferenceMatrix w(n, times, clusters);
        for (int step = 0; step < 50; ++step) {
            const InstrId i = rng.range(n);
            auto row = w.row(i);
            switch (rng.range(7)) {
              case 0:
                row.scaleSlot(rng.range(times), rng.range(clusters),
                              rng.uniform() * 3.0);
                break;
              case 1:
                row.scaleCluster(rng.range(clusters),
                                 rng.uniform() * 3.0);
                break;
              case 2:
                row.scaleTime(rng.range(times), rng.uniform() * 3.0);
                break;
              case 3:
                row.blendFrom(w.row(rng.range(n)), rng.uniform());
                break;
              case 4:
                row.set(rng.range(times), rng.range(clusters),
                        rng.uniform());
                break;
              case 5: {
                const int lo = rng.range(times);
                row.restrictTimeWindow(lo, lo + 1 + rng.range(times));
                break;
              }
              case 6:
                row.addPositiveNoise(rng, rng.uniform());
                break;
            }
            row.normalize();
        }
        w.normalizeAll();
        for (InstrId i = 0; i < n; ++i) {
            EXPECT_NEAR(rowSum(w, i), 1.0, 1e-9);
            double max_weight = 0.0;
            for (int t = 0; t < times; ++t)
                for (int c = 0; c < clusters; ++c) {
                    EXPECT_GE(w.at(i, t, c), 0.0);
                    max_weight = std::max(max_weight, w.at(i, t, c));
                }
            EXPECT_LE(max_weight, 1.0 + 1e-9);
            // Preferred slots are consistent with marginals.
            const int pc = w.preferredCluster(i);
            for (int c = 0; c < clusters; ++c)
                EXPECT_LE(w.spaceMarginal(i, c),
                          w.spaceMarginal(i, pc) + 1e-12);
            // Nothing outside the feasible window carries weight.
            const PreferenceMatrix &cw = w;
            const auto view = cw.row(i);
            for (int t = 0; t < view.windowLo(); ++t)
                for (int c = 0; c < clusters; ++c)
                    EXPECT_EQ(w.at(i, t, c), 0.0);
            for (int t = view.windowHi(); t < times; ++t)
                for (int c = 0; c < clusters; ++c)
                    EXPECT_EQ(w.at(i, t, c), 0.0);
        }
    }
}

// ---- pristine rows ---------------------------------------------------

/**
 * Give row @p i of @p w its own bytes without changing a weight: a
 * scale by 1.0 is exact, and it goes through the materialize step.
 */
void
materializeRow(PreferenceMatrix &w, InstrId i)
{
    w.row(i).scaleCluster(0, 1.0);
}

/** Every derived quantity of row @p i equals @p want's, bitwise. */
void
expectSameDerived(const PreferenceMatrix &got, const PreferenceMatrix &want,
                  InstrId i, const std::string &what)
{
    EXPECT_EQ(got.preferredCluster(i), want.preferredCluster(i)) << what;
    EXPECT_EQ(got.preferredTime(i), want.preferredTime(i)) << what;
    EXPECT_EQ(got.runnerUpCluster(i), want.runnerUpCluster(i)) << what;
    EXPECT_EQ(bits(got.confidence(i)), bits(want.confidence(i))) << what;
}

TEST(PreferenceMatrixPristine, ReadsMatchAMaterializedRow)
{
    const PreferenceMatrix pristine(3, 7, 3);
    PreferenceMatrix materialized(3, 7, 3);
    materializeRow(materialized, 0);
    expectSameState(pristine, materialized, "pristine vs materialized");
    for (int c = 0; c < 3; ++c) {
        const auto got = pristine.row(0).windowSpan(c);
        const auto want =
            static_cast<const PreferenceMatrix &>(materialized)
                .row(0)
                .windowSpan(c);
        ASSERT_EQ(got.size(), want.size());
        for (size_t k = 0; k < got.size(); ++k)
            EXPECT_EQ(bits(got[k]), bits(want[k])) << "cluster " << c;
    }
    expectSameDerived(pristine, materialized, 0, "derived");
    // The mutating cursor reads a pristine row through the template too.
    PreferenceMatrix unwritten(3, 7, 3);
    for (int t = 0; t < 7; ++t)
        for (int c = 0; c < 3; ++c)
            EXPECT_EQ(bits(unwritten.row(0).at(t, c)),
                      bits(materialized.at(0, t, c)));

    // A pristine row as the source of a blend reads the template.
    PreferenceMatrix from_pristine(3, 7, 3);
    PreferenceMatrix from_materialized = materialized;
    for (PreferenceMatrix *w : {&from_pristine, &from_materialized}) {
        w->row(1).restrictTimeWindow(2, 4);
        w->row(1).normalize();
        w->row(1).blendFrom(w->row(0), 0.25);
        w->row(1).normalize();
    }
    expectSameState(from_pristine, from_materialized, "blend source");
    expectSameDerived(from_pristine, from_materialized, 1, "blend source");
}

TEST(PreferenceMatrixPristine, RestrictMatchesMaterializeThenRestrict)
{
    struct Window
    {
        int lo;
        int hi;
    };
    for (const Window window : {Window{2, 5}, Window{0, 9}, Window{-3, 1},
                                Window{8, 20}, Window{4, 4}}) {
        const std::string what = "restrict to [" +
                                 std::to_string(window.lo) + ", " +
                                 std::to_string(window.hi) + ")";
        PreferenceMatrix lazy(2, 9, 3);
        PreferenceMatrix eager(2, 9, 3);
        materializeRow(eager, 1);
        lazy.row(1).restrictTimeWindow(window.lo, window.hi);
        eager.row(1).restrictTimeWindow(window.lo, window.hi);
        expectSameState(lazy, eager, what);
        lazy.row(1).normalize();
        eager.row(1).normalize();
        expectSameState(lazy, eager, what + ", then normalize");
        expectSameDerived(lazy, eager, 1, what);
    }
}

TEST(PreferenceMatrixPristine, RollbackMakesARowPristineAgain)
{
    const PreferenceMatrix fresh(2, 8, 3);
    PreferenceMatrix w(2, 8, 3);
    w.beginUndo();
    w.row(0).restrictTimeWindow(1, 3);
    w.row(0).set(7, 2, 0.5);  // widen past the narrowed window
    w.row(0).normalize();
    w.rollback();
    expectSameState(w, fresh, "rolled back to pristine");

    // The rolled-back row's own bytes were cleared: a pristine-path
    // restriction (which writes only the new window) leaves no stale
    // weight behind.
    PreferenceMatrix reference(2, 8, 3);
    reference.row(0).restrictTimeWindow(4, 6);
    w.row(0).restrictTimeWindow(4, 6);
    expectSameState(w, reference, "restrict after rollback");
}

TEST(PreferenceMatrixPristine, CopyKeepsPristineRowsAndTheTemplate)
{
    PreferenceMatrix w(3, 6, 4);
    const int dead[] = {1};
    w.maskPristineClusters(dead);
    w.row(2).restrictTimeWindow(1, 5);
    w.row(2).normalize();
    PreferenceMatrix copy = w;
    expectSameState(copy, w, "copy");
    copy.row(0).scaleCluster(3, 5.0);
    copy.row(0).normalize();
    PreferenceMatrix reference = w;
    expectSameState(w, reference, "original untouched by the copy");
    EXPECT_EQ(w.at(0, 0, 1), 0.0);
    EXPECT_NE(bits(copy.at(0, 0, 3)), bits(w.at(0, 0, 3)));
}

/** Zero @p dead in every row and normalize, one row at a time. */
void
maskPerRow(PreferenceMatrix &w, const std::vector<int> &dead)
{
    for (InstrId i = 0; i < w.numInstructions(); ++i) {
        auto row = w.row(i);
        for (const int c : dead)
            row.zeroCluster(c);
        row.normalize();
    }
}

TEST(PreferenceMatrixPristine, MaskedTemplateMatchesPerRowMasking)
{
    for (const char *spec : {"raw4x4/faults=seed:3,tiles:25%",
                             "raw8x8/faults=seed:2,tiles:15%"}) {
        const auto machine = tryParseMachineSpec(spec);
        ASSERT_TRUE(machine.ok()) << machine.status().toString();
        ASSERT_TRUE((*machine)->degraded()) << spec;
        const int clusters = (*machine)->numClusters();
        std::vector<int> dead;
        for (int c = 0; c < clusters; ++c)
            if (!(*machine)->clusterAlive(c))
                dead.push_back(c);

        PreferenceMatrix lazy(4, 11, clusters);
        PreferenceMatrix eager(4, 11, clusters);
        lazy.maskPristineClusters(dead);
        maskPerRow(eager, dead);
        expectSameState(lazy, eager, spec);
        for (InstrId i = 0; i < 4; ++i)
            expectSameDerived(lazy, eager, i, spec);

        // Both are clean (a normalize changes nothing and logs
        // nothing), and a pass's first edits agree.
        lazy.beginUndo();
        eager.beginUndo();
        lazy.normalizeAll();
        eager.normalizeAll();
        EXPECT_TRUE(lazy.touchedRows().empty()) << spec;
        EXPECT_TRUE(eager.touchedRows().empty()) << spec;
        for (PreferenceMatrix *w : {&lazy, &eager}) {
            w->row(0).restrictTimeWindow(3, 8);
            w->row(1).scaleCluster(dead.empty() ? 0 : (dead[0] + 1) %
                                                          clusters,
                                   4.0);
            w->row(2).blendFrom(w->row(3), 0.5);
            w->normalizeAll();
        }
        expectSameState(lazy, eager, std::string(spec) + ", edited");
        // The undo log holds the masked rows as flags: rolling back
        // returns them to the masked template.
        lazy.rollback();
        eager.rollback();
        expectSameState(lazy, eager, std::string(spec) + ", rolled back");
    }
}

TEST(PreferenceMatrixPristine, ResetOfAMaskedRowIsTheTrueUniform)
{
    PreferenceMatrix w(1, 4, 2);
    const int dead[] = {0};
    w.maskPristineClusters(dead);
    w.row(0).restrictTimeWindow(2, 2);
    w.row(0).normalize();
    for (int t = 0; t < 4; ++t)
        for (int c = 0; c < 2; ++c)
            EXPECT_EQ(w.at(0, t, c), 1.0 / 8.0);
}

// ---- the guard verdict -----------------------------------------------

/** The guard's full walk over row @p i, spelled out independently. */
bool
walkPasses(const PreferenceMatrix &w, InstrId i)
{
    const auto row = w.row(i);
    double sum = 0.0;
    for (int c = 0; c < w.numClusters(); ++c) {
        double cluster_sum = 0.0;
        for (const double v : row.windowSpan(c)) {
            if (!std::isfinite(v) || v < -PreferenceMatrix::kWeightSlack ||
                v > 1.0 + PreferenceMatrix::kWeightSlack)
                return false;
            cluster_sum += v;
        }
        sum += cluster_sum;
    }
    return std::abs(sum - 1.0) <= PreferenceMatrix::kSumSlack;
}

/**
 * Property test: over random kernel sequences -- including sloppy
 * ones that skip the normalize, non-finite weights, empty windows,
 * and rollbacks -- the guard's verdict (which trusts the stored bit)
 * always equals a forced full walk, the bit never vouches for a row
 * the walk rejects, and a rescaling normalize always records the
 * walk's verdict.
 */
TEST(PreferenceMatrixProperty, StoredVerdictEqualsAFullWalk)
{
    Rng rng(2718);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 30; ++round) {
        const int n = 1 + rng.range(5);
        const int times = 1 + rng.range(9);
        const int clusters = 1 + rng.range(4);
        PreferenceMatrix w(n, times, clusters);
        w.beginUndo();
        for (int step = 0; step < 80; ++step) {
            const InstrId i = rng.range(n);
            auto row = w.row(i);
            switch (rng.range(12)) {
              case 0:
                row.scaleSlot(rng.range(times), rng.range(clusters),
                              rng.uniform() * 3.0);
                break;
              case 1:
                row.scaleCluster(rng.range(clusters), rng.uniform() * 3.0);
                break;
              case 2: {
                std::vector<double> factors(clusters);
                for (double &f : factors)
                    f = rng.uniform() * 2.0;
                row.scaleClusters(factors.data());
                break;
              }
              case 3:
                row.scaleTime(rng.range(times), rng.uniform() * 3.0);
                break;
              case 4:
                row.zeroCluster(rng.range(clusters));
                break;
              case 5:
                row.set(rng.range(times), rng.range(clusters),
                        rng.range(20) == 0 ? kInf : rng.uniform());
                break;
              case 6: {
                const int lo = rng.range(times + 1);
                row.restrictTimeWindow(lo, lo + rng.range(times + 1));
                break;
              }
              case 7:
                row.addPositiveNoise(rng, rng.uniform());
                break;
              case 8:
                row.blendFrom(w.row(rng.range(n)), rng.uniform());
                break;
              case 9:
                w.rollback();
                break;
              case 10:
                w.beginUndo();
                break;
              case 11:
                break;  // no edit: only the normalize below
            }
            if (rng.range(3) != 0) {
                double total = 0.0;
                for (int t = 0; t < times; ++t)
                    for (int c = 0; c < clusters; ++c)
                        total += w.at(i, t, c);
                const PreferenceMatrix before = w;
                w.row(i).normalize();
                // A normalize that rescaled the row (rather than skip
                // a clean row or reset an all-zero one) recorded
                // exactly the walk's verdict on the bytes it wrote.
                bool rescaled = false;
                for (int t = 0; t < times; ++t)
                    for (int c = 0; c < clusters; ++c)
                        rescaled |= bits(before.at(i, t, c)) !=
                                    bits(w.at(i, t, c));
                if (rescaled && !(total <= 1e-300)) {
                    EXPECT_EQ(w.verified(i), walkPasses(w, i))
                        << "round " << round << " step " << step;
                }
            }
            for (InstrId k = 0; k < n; ++k) {
                const bool walk = walkPasses(w, k);
                const InstrId one[] = {k};
                EXPECT_EQ(checkWeightInvariants(w, one, "P").ok(), walk)
                    << "round " << round << " step " << step << " row "
                    << k;
                if (w.verified(k)) {
                    EXPECT_TRUE(walk) << "round " << round << " step "
                                      << step << " row " << k;
                }
            }
        }
    }
}

// The same mutation sequence the removed per-element shims used to
// cover, spelled natively in RowView: the coverage survives the
// compatibility surface it was written for.
TEST(PreferenceMatrixCompat, RowViewMutationSequence)
{
    PreferenceMatrix w(2, 2, 2);
    w.row(0).set(0, 0, 3.0);
    w.row(0).scaleSlot(0, 0, 2.0);
    w.row(0).scaleCluster(1, 0.5);
    w.row(0).scaleTime(1, 0.25);
    w.row(0).normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    w.row(1).blendFrom(w.row(0), 0.5);
    w.row(1).normalize();
    EXPECT_NEAR(rowSum(w, 1), 1.0, 1e-12);
    EXPECT_EQ(w.preferredCluster(0), 0);
}

TEST(PreferenceMatrixDeathTest, RejectsNegativeWeight)
{
    PreferenceMatrix w(1, 1, 1);
    EXPECT_DEATH(w.row(0).set(0, 0, -0.5), "negative");
}

TEST(PreferenceMatrixDeathTest, RejectsOutOfRange)
{
    PreferenceMatrix w(1, 2, 2);
    EXPECT_DEATH(w.at(0, 2, 0), "out of range");
    EXPECT_DEATH(w.at(1, 0, 0), "out of range");
    EXPECT_DEATH(w.runnerUpCluster(1), "out of range");
    EXPECT_DEATH(w.confidence(-1), "out of range");
}

TEST(PreferenceMatrixDeathTest, SingleClusterReadersStillCheckTheRow)
{
    const PreferenceMatrix w(2, 3, 1);
    EXPECT_DEATH(w.runnerUpCluster(2), "out of range");
    EXPECT_DEATH(w.confidence(2), "out of range");
}

TEST(PreferenceMatrixDeathTest, MaskNeedsEveryRowPristine)
{
    PreferenceMatrix w(2, 3, 2);
    w.row(1).scaleCluster(0, 2.0);
    const int dead[] = {0};
    EXPECT_DEATH(w.maskPristineClusters(dead), "pristine");
}

} // namespace
} // namespace csched
