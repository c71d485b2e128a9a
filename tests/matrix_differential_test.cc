/**
 * @file
 * Differential property test: the cluster-blocked engine
 * (PreferenceMatrix) must agree bit-for-bit with the pre-rewrite
 * time-major engine (DenseReferenceMatrix) on every operation
 * sequence.  "Bit-for-bit" is literal: weights are compared by their
 * IEEE-754 payloads, so even a +0.0/-0.0 disagreement or a reordered
 * summation (which changes rounding) fails the test.
 *
 * Seeded random scripts draw from the full mutation surface --
 * including the window restriction and noise ops whose blocked
 * implementations skip work the dense engine performs explicitly, and
 * repeated normalize() calls that exercise the shared clean-skip
 * predicate -- and cross-check all derived observables (marginals,
 * preferred slots, runner-up, confidence) after every step.  The
 * dirty-row scripts also leave rows unnormalized between ops, so
 * several kernels meet one dirty row with reads in between.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "convergent/dense_reference_matrix.hh"
#include "convergent/preference_matrix.hh"
#include "support/rng.hh"

namespace csched {
namespace {

/** Exact-bits equality for finite doubles, with a readable failure. */
::testing::AssertionResult
sameBits(double blocked, double dense)
{
    if (std::bit_cast<uint64_t>(blocked) == std::bit_cast<uint64_t>(dense))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "blocked=" << blocked << " (0x" << std::hex
           << std::bit_cast<uint64_t>(blocked) << ") dense=" << std::dec
           << dense << " (0x" << std::hex << std::bit_cast<uint64_t>(dense)
           << ")";
}

/** Compare every observable of instruction @p i in both engines. */
void
expectRowIdentical(const PreferenceMatrix &blocked,
                   const DenseReferenceMatrix &dense, InstrId i)
{
    for (int t = 0; t < blocked.numTimes(); ++t)
        for (int c = 0; c < blocked.numClusters(); ++c)
            ASSERT_TRUE(sameBits(blocked.at(i, t, c), dense.at(i, t, c)))
                << "weight i=" << i << " t=" << t << " c=" << c;
    for (int c = 0; c < blocked.numClusters(); ++c)
        ASSERT_TRUE(
            sameBits(blocked.spaceMarginal(i, c), dense.spaceMarginal(i, c)))
            << "space marginal i=" << i << " c=" << c;
    for (int t = 0; t < blocked.numTimes(); ++t)
        ASSERT_TRUE(
            sameBits(blocked.timeMarginal(i, t), dense.timeMarginal(i, t)))
            << "time marginal i=" << i << " t=" << t;
    ASSERT_EQ(blocked.preferredCluster(i), dense.preferredCluster(i));
    ASSERT_EQ(blocked.preferredTime(i), dense.preferredTime(i));
    ASSERT_EQ(blocked.runnerUpCluster(i), dense.runnerUpCluster(i));
    ASSERT_TRUE(sameBits(blocked.confidence(i), dense.confidence(i)))
        << "confidence i=" << i;
}

void
expectIdentical(const PreferenceMatrix &blocked,
                const DenseReferenceMatrix &dense)
{
    for (InstrId i = 0; i < blocked.numInstructions(); ++i)
        expectRowIdentical(blocked, dense, i);
}

TEST(MatrixDifferential, FreshMatricesAgree)
{
    const PreferenceMatrix blocked(4, 7, 3);
    const DenseReferenceMatrix dense(4, 7, 3);
    expectIdentical(blocked, dense);
}

TEST(MatrixDifferential, CleanSkipPredicateIsShared)
{
    PreferenceMatrix blocked(1, 5, 2);
    DenseReferenceMatrix dense(1, 5, 2);
    blocked.row(0).scaleCluster(1, 3.0);
    dense.scaleCluster(0, 1, 3.0);
    // Normalizing twice with no mutation in between: both engines must
    // take the clean-skip on the second call (a second rescale would
    // multiply by a 1 +/- 1ulp factor and change the low bits).
    for (int repeat = 0; repeat < 3; ++repeat) {
        blocked.row(0).normalize();
        dense.normalize(0);
        expectIdentical(blocked, dense);
    }
}

TEST(MatrixDifferential, WindowRestrictionIsBitTransparent)
{
    PreferenceMatrix blocked(2, 9, 3);
    DenseReferenceMatrix dense(2, 9, 3);
    blocked.row(0).restrictTimeWindow(2, 6);
    dense.restrictTimeWindow(0, 2, 6);
    blocked.row(0).normalize();
    dense.normalize(0);
    expectIdentical(blocked, dense);
    // Narrow further, then widen again via blend from the wide row.
    blocked.row(0).restrictTimeWindow(3, 5);
    dense.restrictTimeWindow(0, 3, 5);
    blocked.row(0).blendFrom(
        static_cast<const PreferenceMatrix &>(blocked).row(1), 0.5);
    dense.blend(0, 1, 0.5);
    blocked.row(0).normalize();
    dense.normalize(0);
    expectIdentical(blocked, dense);
}

TEST(MatrixDifferential, NoiseDrawsStayInLockstep)
{
    PreferenceMatrix blocked(2, 6, 2);
    DenseReferenceMatrix dense(2, 6, 2);
    // Zero out slots so the skip-without-drawing rule matters: if one
    // engine consumed an rng draw for a zero slot the sequences would
    // diverge on every later slot.
    blocked.row(0).restrictTimeWindow(1, 4);
    dense.restrictTimeWindow(0, 1, 4);
    blocked.row(0).zeroCluster(1);
    for (int t = 0; t < 6; ++t)
        dense.set(0, t, 1, 0.0);
    Rng rng_blocked(99);
    Rng rng_dense(99);
    for (InstrId i = 0; i < 2; ++i) {
        blocked.row(i).addPositiveNoise(rng_blocked, 0.7);
        dense.addPositiveNoise(i, rng_dense, 0.7);
        blocked.row(i).normalize();
        dense.normalize(i);
    }
    expectIdentical(blocked, dense);
}

/** Both engines and the engine-private noise streams of one script. */
struct Engines
{
    PreferenceMatrix blocked;
    DenseReferenceMatrix dense;
    Rng noiseBlocked;
    Rng noiseDense;
};

/**
 * Apply op @p op of the shared mutation surface (0..9) to row @p i of
 * both engines, drawing its operands from @p script.
 */
void
applyOp(Engines &e, Rng &script, InstrId i, int op)
{
    const int n = e.blocked.numInstructions();
    const int times = e.blocked.numTimes();
    const int clusters = e.blocked.numClusters();
    auto row = e.blocked.row(i);
    switch (op) {
      case 0: {
        const int t = script.range(times);
        const int c = script.range(clusters);
        const double v = script.uniform();
        row.set(t, c, v);
        e.dense.set(i, t, c, v);
        break;
      }
      case 1: {
        const int t = script.range(times);
        const int c = script.range(clusters);
        const double f = script.uniform() * 3.0;
        row.scaleSlot(t, c, f);
        e.dense.scale(i, t, c, f);
        break;
      }
      case 2: {
        const int c = script.range(clusters);
        const double f = script.uniform() * 3.0;
        row.scaleCluster(c, f);
        e.dense.scaleCluster(i, c, f);
        break;
      }
      case 3: {
        const int t = script.range(times);
        const double f = script.uniform() * 3.0;
        row.scaleTime(t, f);
        e.dense.scaleTime(i, t, f);
        break;
      }
      case 4: {
        std::vector<double> factors(clusters);
        for (int c = 0; c < clusters; ++c)
            factors[c] = script.uniform() * 2.0;
        row.scaleClusters(factors.data());
        for (int c = 0; c < clusters; ++c)
            e.dense.scaleCluster(i, c, factors[c]);
        break;
      }
      case 5: {
        const InstrId src = script.range(n);
        const double keep = script.uniform();
        row.blendFrom(
            static_cast<const PreferenceMatrix &>(e.blocked).row(src), keep);
        e.dense.blend(i, src, keep);
        break;
      }
      case 6: {
        const int lo = script.range(times + 1);
        const int hi = lo + script.range(times + 1 - lo);
        row.restrictTimeWindow(lo, hi);
        e.dense.restrictTimeWindow(i, lo, hi);
        break;
      }
      case 7: {
        const int c = script.range(clusters);
        row.zeroCluster(c);
        for (int t = 0; t < times; ++t)
            e.dense.set(i, t, c, 0.0);
        break;
      }
      case 8: {
        const double amplitude = script.uniform();
        row.addPositiveNoise(e.noiseBlocked, amplitude);
        e.dense.addPositiveNoise(i, e.noiseDense, amplitude);
        break;
      }
      case 9:
        // Repeat normalize on an already-clean row every so often: the
        // clean-skip must fire in both engines.
        row.normalize();
        e.dense.normalize(i);
        break;
    }
}

/**
 * The main event: seeded random scripts over the full op surface,
 * cross-checked after every step.
 */
TEST(MatrixDifferential, RandomScriptsAreBitIdentical)
{
    Rng script(4242);
    for (int round = 0; round < 12; ++round) {
        const int n = 1 + script.range(5);
        const int times = 1 + script.range(10);
        const int clusters = 1 + script.range(4);
        // Noise draws must come from engine-private streams with the
        // same seed so a skipped draw in one engine is a bug, not a
        // synchronisation artefact.
        const uint64_t noise_seed = 1000 + round;
        Engines e{PreferenceMatrix(n, times, clusters),
                  DenseReferenceMatrix(n, times, clusters), Rng(noise_seed),
                  Rng(noise_seed)};

        for (int step = 0; step < 60; ++step) {
            const InstrId i = script.range(n);
            applyOp(e, script, i, script.range(10));
            e.blocked.row(i).normalize();
            e.dense.normalize(i);
            ASSERT_NO_FATAL_FAILURE(expectRowIdentical(e.blocked, e.dense, i))
                << "round " << round << " step " << step;
        }
        e.blocked.normalizeAll();
        e.dense.normalizeAll();
        ASSERT_NO_FATAL_FAILURE(expectIdentical(e.blocked, e.dense))
            << "round " << round << " final state";
    }
}

/**
 * The same scripts, skipping the normalize on about a third of the
 * steps, so later ops meet rows that one or more kernels left
 * unnormalized -- a pristine row included, whose first kernel copies
 * the template in.
 */
TEST(MatrixDifferential, RandomScriptsWithDirtyRowsAreBitIdentical)
{
    Rng script(8484);
    for (int round = 0; round < 12; ++round) {
        const int n = 1 + script.range(5);
        const int times = 1 + script.range(10);
        const int clusters = 1 + script.range(4);
        const uint64_t noise_seed = 2000 + round;
        Engines e{PreferenceMatrix(n, times, clusters),
                  DenseReferenceMatrix(n, times, clusters), Rng(noise_seed),
                  Rng(noise_seed)};

        for (int step = 0; step < 60; ++step) {
            const InstrId i = script.range(n);
            const int op = script.range(10);
            applyOp(e, script, i, op);
            // Before the normalize too: a row the kernels left dirty
            // must read the same as a full recomputation.
            ASSERT_NO_FATAL_FAILURE(expectRowIdentical(e.blocked, e.dense, i))
                << "round " << round << " step " << step << " (op " << op
                << ")";
            if (script.range(3) == 0)
                continue;  // leave the row dirty for the next op
            e.blocked.row(i).normalize();
            e.dense.normalize(i);
            ASSERT_NO_FATAL_FAILURE(expectRowIdentical(e.blocked, e.dense, i))
                << "round " << round << " step " << step;
        }
        e.blocked.normalizeAll();
        e.dense.normalizeAll();
        ASSERT_NO_FATAL_FAILURE(expectIdentical(e.blocked, e.dense))
            << "round " << round << " final state";
    }
}

} // namespace
} // namespace csched
