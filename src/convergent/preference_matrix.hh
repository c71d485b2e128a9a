/**
 * @file
 * The convergent-scheduling preference matrix (Section 3 of the paper).
 *
 * Preferences are stored as a three-dimensional weight matrix
 * W[i][t][c] over instructions, time slots, and clusters, with as many
 * time slots as the critical-path length.  The class maintains the
 * paper's invariants
 *
 *     0 <= W[i][t][c] <= 1      and      sum_{t,c} W[i][t][c] = 1
 *
 * (restored by normalize()), and exposes the derived quantities every
 * pass consumes -- space/time marginals, preferred cluster and time,
 * runner-up cluster, and confidence (the ratio of the top two cluster
 * marginals).
 *
 * Engine layout (see DESIGN.md section 10).  One arena allocation
 * backs the whole engine; per instruction the (time x cluster) row is
 * stored cluster-blocked,
 *
 *     data[i * C*T + c * T + t]
 *
 * so the inner dimension of the hottest batched operation
 * (scaleCluster, the per-cluster multiply behind almost every pass)
 * is a contiguous T-long block instead of a stride-C walk.  Marginal
 * caches live in the same arena and are maintained incrementally:
 * scaleCluster refreshes exactly the one touched cluster sum while it
 * multiplies, scaleTime refreshes exactly the one touched time sum,
 * and only genuinely row-wide mutations invalidate a side wholesale.
 *
 * Rows additionally carry a feasible time window [lo, hi): every slot
 * outside the window is exactly +0.0, and every batched kernel
 * iterates the window only.  INITTIME establishes the windows from
 * the earliest-start/latest-finish slack, after which long narrow
 * graphs (fpppp, sha shapes) touch a small fraction of each row.
 * Skipping exact zeros is bit-transparent: weights are non-negative,
 * x + (+0.0) == x and (+0.0) * f == +0.0 bitwise, so windowed sums
 * and scales produce bit-identical results to full-row walks (the
 * differential test in tests/matrix_differential_test.cc holds the
 * engine to that).
 *
 * Mutation goes through RowView, a cursor that validates the row
 * index once and then applies fused batched kernels with no
 * per-element dispatch or bounds rechecks.  (The per-element
 * matrix-level mutators that bridged the rewrite are gone; their
 * one-release deprecation window has closed, and ci.sh builds with
 * -Werror=deprecated-declarations to keep such shims out.)  The
 * per-element read path at() is the supported compatibility surface
 * for traces and JSON emitters.
 *
 * Every summation a kernel performs accumulates in the exact order
 * the pre-rewrite engine used (space marginals ascend t per cluster,
 * time marginals ascend c per slot, normalize ascends t-major), so
 * the rewrite is bit-identical by construction, not just
 * approximately equal.
 *
 * Undo log.  beginUndo() opens a scope in which every mutating kernel
 * saves its row's pre-image the first time it touches the row: the
 * window bounds, the window's weights per cluster, and the clean
 * flag.  (normalize() on a row that is already clean writes nothing
 * and logs nothing.)  A row still in its constructed uniform state is
 * logged as a flag only, so the first pass over a fresh matrix copies
 * no weights.  rollback() restores exactly the logged rows, and
 * touchedRows() names them, so the scheduler's pass guard, rollback
 * and convergence count cost what the pass touched rather than the
 * whole matrix.
 */

#ifndef CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH
#define CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/instruction.hh"

namespace csched {

class Rng;

/** Dense per-instruction (time x cluster) weight matrix. */
class PreferenceMatrix
{
  public:
    class RowView;
    class ConstRowView;
    class MatrixView;

    /**
     * Create a matrix with uniform weights: every (t, c) slot of every
     * instruction gets 1 / (num_times * num_clusters).
     */
    PreferenceMatrix(int num_instrs, int num_times, int num_clusters);

    int numInstructions() const { return numInstrs_; }
    int numTimes() const { return numTimes_; }
    int numClusters() const { return numClusters_; }

    /** Batched mutation cursor for instruction @p i. */
    RowView row(InstrId i);

    /** Batched read cursor for instruction @p i. */
    ConstRowView row(InstrId i) const;

    /** Whole-matrix cursor (bulk helpers over row()). */
    MatrixView view();

    /**
     * Weight of instruction @p i at time @p t on cluster @p c.  The
     * per-element compatibility read path (traces, JSON, tests);
     * batched readers go through row().
     */
    double at(InstrId i, int t, int c) const;

    /** normalize() every instruction. */
    void normalizeAll();

    /** Sum over time of W[i][.][c]. */
    double spaceMarginal(InstrId i, int c) const;

    /** Sum over clusters of W[i][t][.]. */
    double timeMarginal(InstrId i, int t) const;

    /** argmax_c of the space marginal (lowest index wins ties). */
    int preferredCluster(InstrId i) const;

    /** argmax_t of the time marginal (lowest index wins ties). */
    int preferredTime(InstrId i) const;

    /**
     * Expectation of the time marginal, rounded to a slot.  A more
     * noise-robust summary of the temporal preference than the argmax
     * when several slots carry similar weight.
     */
    int expectedTime(InstrId i) const;

    /**
     * Second-best cluster by space marginal; for single-cluster
     * machines this equals the preferred cluster.
     */
    int runnerUpCluster(InstrId i) const;

    /**
     * Confidence of the current spatial assignment: the ratio of the
     * preferred cluster's marginal to the runner-up's (Section 3).
     * Returns a large finite value when the runner-up marginal is 0.
     */
    double confidence(InstrId i) const;

    /** Preferred cluster of every instruction. */
    std::vector<int> preferredClusters() const;

    /** Preferred time of every instruction. */
    std::vector<int> preferredTimes() const;

    /**
     * Open a new undo scope: drop the previous scope's log, then log
     * each row's pre-image the first time a mutation touches it.
     */
    void beginUndo();

    /**
     * Restore every row touched since beginUndo() -- weights, window
     * and clean flag -- and empty the log.  The scope stays open.
     */
    void rollback();

    /** Rows touched since beginUndo(), each once, in first-touch order. */
    const std::vector<InstrId> &touchedRows() const { return touched_; }

  private:
    friend class RowView;
    friend class ConstRowView;

    void checkInstr(InstrId i) const;
    void checkIndex(InstrId i, int t, int c) const;

    double *rowData(InstrId i) { return arena_.data() + dataOff(i); }
    const double *
    rowData(InstrId i) const
    {
        return arena_.data() + dataOff(i);
    }
    /** The contiguous T-long block of cluster @p c in row @p i. */
    double *
    block(InstrId i, int c)
    {
        return rowData(i) + static_cast<size_t>(c) * numTimes_;
    }
    const double *
    block(InstrId i, int c) const
    {
        return rowData(i) + static_cast<size_t>(c) * numTimes_;
    }
    double *spaceSums(InstrId i) const;
    double *timeSums(InstrId i) const;

    size_t
    dataOff(InstrId i) const
    {
        return static_cast<size_t>(i) * rowStride_;
    }

    /** A mutation touched row @p i: caches stale, row not normalized. */
    void markMutated(InstrId i);

    /**
     * Every mutating kernel calls this before it writes row @p i: logs
     * the pre-image on the row's first touch in an open undo scope.
     */
    void
    willMutate(InstrId i)
    {
        if (undoOpen_ && !logged_[i])
            logPreImage(i);
        pristine_[i] = 0;
    }
    void logPreImage(InstrId i);

    void refreshSpace(InstrId i) const;
    void refreshTime(InstrId i) const;

    // The batched kernels behind RowView (documented there).
    void rowSet(InstrId i, int t, int c, double value);
    void rowScaleSlot(InstrId i, int t, int c, double factor);
    void rowScaleCluster(InstrId i, int c, double factor);
    void rowScaleClusters(InstrId i, const double *factors);
    void rowScaleTime(InstrId i, int t, double factor);
    void rowZeroCluster(InstrId i, int c);
    void rowRestrictTimeWindow(InstrId i, int lo, int hi);
    void rowAddPositiveNoise(InstrId i, Rng &rng, double amplitude);
    void rowBlendFrom(InstrId i, InstrId other, double w);
    void rowNormalize(InstrId i);

    int numInstrs_;
    int numTimes_;
    int numClusters_;
    size_t rowStride_; ///< C * T doubles per row

    /**
     * The weight arena: one flat N*C*T allocation, cluster-blocked
     * per row.  The marginal caches share a second flat allocation
     * (mutable, so const readers can refresh lazily): N*C space sums
     * followed by N*T time sums.  Offsets (not pointers) keep the
     * class default-copyable.
     */
    std::vector<double> arena_;
    mutable std::vector<double> cache_;
    size_t timeOff_; ///< offset of the time sums inside cache_

    /** Feasible half-open time windows; slots outside are +0.0. */
    std::vector<int> winLo_;
    std::vector<int> winHi_;

    // Cache validity, per row and per side (1 = valid), plus the
    // normalize clean flag: set by normalize(), cleared by every
    // mutation, and normalize() returns immediately when it is still
    // set -- the cached row sum is exactly the post-normalize sum, no
    // epsilon test needed.
    mutable std::vector<uint8_t> spaceValid_;
    mutable std::vector<uint8_t> timeValid_;
    std::vector<uint8_t> clean_;

    /** Per row: 1 while the row still holds its constructed weights. */
    std::vector<uint8_t> pristine_;

    /** One logged pre-image; its weights sit in undoData_ at offset. */
    struct UndoRecord
    {
        int lo;
        int hi;
        uint8_t clean;
        uint8_t pristine; ///< no weights stored: refill with uniform
        size_t offset;
    };

    bool undoOpen_ = false;
    std::vector<uint8_t> logged_;  ///< per row: pre-image in the log
    std::vector<InstrId> touched_; ///< logged rows, first-touch order
    std::vector<UndoRecord> undo_; ///< parallel to touched_
    std::vector<double> undoData_; ///< logged windows, cluster by cluster
};

/**
 * Read-only batched cursor over one instruction's (time x cluster)
 * row.  Validates the row index at construction; the accessors do no
 * further per-element dispatch.
 */
class PreferenceMatrix::ConstRowView
{
  public:
    int numTimes() const { return m_->numTimes_; }
    int numClusters() const { return m_->numClusters_; }

    /** Feasible window: slots outside [windowLo, windowHi) are 0. */
    int windowLo() const { return m_->winLo_[i_]; }
    int windowHi() const { return m_->winHi_[i_]; }

    double
    at(int t, int c) const
    {
        return m_->block(i_, c)[t];
    }

    /** Cluster @p c's weights over the feasible window, contiguous. */
    std::span<const double>
    windowSpan(int c) const
    {
        return {m_->block(i_, c) + windowLo(),
                static_cast<size_t>(windowHi() - windowLo())};
    }

    double spaceMarginal(int c) const;
    int preferredCluster() const;

  private:
    friend class PreferenceMatrix;
    ConstRowView(const PreferenceMatrix *m, InstrId i) : m_(m), i_(i) {}

    const PreferenceMatrix *m_;
    InstrId i_;
};

/**
 * Mutating batched cursor over one instruction's row.  Every method
 * is a fused kernel: it applies the mutation over contiguous spans
 * (restricted to the feasible window) and maintains the marginal
 * caches incrementally where the summation order allows, with no
 * per-element bounds rechecks.
 */
class PreferenceMatrix::RowView
{
  public:
    int numTimes() const { return m_->numTimes_; }
    int numClusters() const { return m_->numClusters_; }
    int windowLo() const { return m_->winLo_[i_]; }
    int windowHi() const { return m_->winHi_[i_]; }

    double
    at(int t, int c) const
    {
        return m_->block(i_, c)[t];
    }

    /** A RowView also reads: converts to the read-only cursor. */
    operator ConstRowView() const { return ConstRowView(m_, i_); }

    /** Overwrite one weight (>= 0); widens the window if needed. */
    void set(int t, int c, double value) { m_->rowSet(i_, t, c, value); }

    /** Multiply one weight by @p factor (>= 0). */
    void
    scaleSlot(int t, int c, double factor)
    {
        m_->rowScaleSlot(i_, t, c, factor);
    }

    /**
     * Multiply cluster @p c's whole block by @p factor and refresh
     * its space marginal in the same sweep.
     */
    void
    scaleCluster(int c, double factor)
    {
        m_->rowScaleCluster(i_, c, factor);
    }

    /**
     * Multiply every cluster block by its own factor (an array of
     * numClusters() values), one fused sweep over the row.
     */
    void
    scaleClusters(const double *factors)
    {
        m_->rowScaleClusters(i_, factors);
    }

    /**
     * Multiply time slot @p t across clusters by @p factor and
     * refresh that slot's time marginal in the same sweep.
     */
    void
    scaleTime(int t, double factor)
    {
        m_->rowScaleTime(i_, t, factor);
    }

    /** Set cluster @p c's whole block to zero. */
    void zeroCluster(int c) { m_->rowZeroCluster(i_, c); }

    /**
     * Squash every slot outside [lo, hi) to zero and shrink the
     * feasible window to the intersection; subsequent batched
     * operations on this row iterate the window only.
     */
    void
    restrictTimeWindow(int lo, int hi)
    {
        m_->rowRestrictTimeWindow(i_, lo, hi);
    }

    /**
     * Add rng.uniform() * amplitude to every positive weight, drawing
     * in ascending (t, c) order (zero weights draw nothing, so
     * infeasible slots stay zero and the draw sequence matches the
     * per-element formulation exactly).
     */
    void
    addPositiveNoise(Rng &rng, double amplitude)
    {
        m_->rowAddPositiveNoise(i_, rng, amplitude);
    }

    /**
     * Linear combination of Section 3 with n = 2:
     * W[this] <- keep * W[this] + (1 - keep) * W[src], elementwise.
     * The window widens to the union of the two rows' windows.
     */
    void
    blendFrom(const ConstRowView &src, double keep)
    {
        m_->rowBlendFrom(i_, src.i_, keep);
    }

    /**
     * Restore the sum-to-one invariant.  If every weight was squashed
     * to zero the row resets to uniform (no pass may make an
     * instruction unschedulable).  A row that is still clean from a
     * previous normalize -- no mutation since -- returns without
     * rescanning.
     */
    void normalize() { m_->rowNormalize(i_); }

    // Readers mirroring ConstRowView, so a pass can interleave reads
    // with mutations through one cursor.
    double
    spaceMarginal(int c) const
    {
        return ConstRowView(m_, i_).spaceMarginal(c);
    }
    int
    preferredCluster() const
    {
        return ConstRowView(m_, i_).preferredCluster();
    }

  private:
    friend class PreferenceMatrix;
    RowView(PreferenceMatrix *m, InstrId i) : m_(m), i_(i) {}

    PreferenceMatrix *m_;
    InstrId i_;
};

/** Whole-matrix cursor: bulk helpers expressed over row(). */
class PreferenceMatrix::MatrixView
{
  public:
    int numInstructions() const { return m_->numInstructions(); }
    int numTimes() const { return m_->numTimes(); }
    int numClusters() const { return m_->numClusters(); }

    RowView row(InstrId i) { return m_->row(i); }
    ConstRowView constRow(InstrId i) const
    {
        return static_cast<const PreferenceMatrix *>(m_)->row(i);
    }

    /** normalize() every row. */
    void normalizeAll() { m_->normalizeAll(); }

  private:
    friend class PreferenceMatrix;
    explicit MatrixView(PreferenceMatrix *m) : m_(m) {}

    PreferenceMatrix *m_;
};

inline PreferenceMatrix::RowView
PreferenceMatrix::row(InstrId i)
{
    checkInstr(i);
    return RowView(this, i);
}

inline PreferenceMatrix::ConstRowView
PreferenceMatrix::row(InstrId i) const
{
    checkInstr(i);
    return ConstRowView(this, i);
}

inline PreferenceMatrix::MatrixView
PreferenceMatrix::view()
{
    return MatrixView(this);
}

} // namespace csched

#endif // CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH
