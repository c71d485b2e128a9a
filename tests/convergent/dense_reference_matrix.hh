/**
 * @file
 * The pre-rewrite preference-matrix engine, kept verbatim as a
 * reference implementation: a flat time-major row per instruction
 * (data[i][t * C + c]), full-row rescans after every mutation, and no
 * feasible-window bookkeeping.  The blocked engine in
 * preference_matrix.hh must agree with this class bit-for-bit on
 * every operation sequence -- tests/matrix_differential_test.cc
 * replays seeded random mutation scripts against both and compares
 * weights, marginals, preferred slots, and confidence with exact
 * double equality.
 *
 * The one deliberate departure from the historical code is shared
 * with the new engine: normalize() returns immediately when the row
 * is still clean from a previous normalize (same predicate, so the
 * two implementations stay in lockstep by construction).
 *
 * This class is test-only surface: it lives under tests/ and only the
 * differential test links against it.
 */

#ifndef CSCHED_CONVERGENT_DENSE_REFERENCE_MATRIX_HH
#define CSCHED_CONVERGENT_DENSE_REFERENCE_MATRIX_HH

#include <cstdint>
#include <vector>

#include "ir/instruction.hh"

namespace csched {

class Rng;

/** Time-major rescan-everything engine; see file comment. */
class DenseReferenceMatrix
{
  public:
    DenseReferenceMatrix(int num_instrs, int num_times, int num_clusters);

    int numInstructions() const { return numInstrs_; }
    int numTimes() const { return numTimes_; }
    int numClusters() const { return numClusters_; }

    double at(InstrId i, int t, int c) const;
    void set(InstrId i, int t, int c, double value);
    void scale(InstrId i, int t, int c, double factor);
    void scaleCluster(InstrId i, int c, double factor);
    void scaleTime(InstrId i, int t, double factor);
    void blend(InstrId i, InstrId other, double w);
    void normalize(InstrId i);
    void normalizeAll();

    /** The per-element spelling of RowView::restrictTimeWindow. */
    void restrictTimeWindow(InstrId i, int lo, int hi);

    /** The per-element spelling of RowView::addPositiveNoise. */
    void addPositiveNoise(InstrId i, Rng &rng, double amplitude);

    double spaceMarginal(InstrId i, int c) const;
    double timeMarginal(InstrId i, int t) const;
    int preferredCluster(InstrId i) const;
    int preferredTime(InstrId i) const;
    int runnerUpCluster(InstrId i) const;
    double confidence(InstrId i) const;

  private:
    void checkIndex(InstrId i, int t, int c) const;
    void touch(InstrId i);
    void refresh(InstrId i) const;

    double *row(InstrId i) { return &data_[static_cast<size_t>(i) * rowSize_]; }
    const double *
    row(InstrId i) const
    {
        return &data_[static_cast<size_t>(i) * rowSize_];
    }

    int numInstrs_;
    int numTimes_;
    int numClusters_;
    size_t rowSize_;
    std::vector<double> data_;

    mutable std::vector<double> spaceSum_; // [i * C + c]
    mutable std::vector<double> timeSum_;  // [i * T + t]
    mutable std::vector<bool> dirty_;
    std::vector<uint8_t> clean_; ///< shared normalize-skip predicate
};

} // namespace csched

#endif // CSCHED_CONVERGENT_DENSE_REFERENCE_MATRIX_HH
