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
 * is a contiguous T-long block instead of a stride-C walk.
 *
 * Caches.  Only what the passes steer by is cached: each row's C
 * cluster sums (space marginals) and, under the same per-row flag,
 * the preferred cluster, in a second N*C arena.  normalize()'s sweep
 * fills both; a mutating kernel only invalidates them, and the first
 * read of a row written since its last normalize refreshes both in
 * one walk of the window.  Time marginals are not cached: the
 * preferred time is read once per row as the list scheduler's
 * priority and once per COMM pass, so preferredTime() and
 * timeMarginal() sum the window into a T-long scratch on each call.
 * (Counted on one cycle of the seeded wide-10k/vliw4 and
 * narrow-2k/raw4 regions and on mxm/raw32x32: none of 206,578
 * time-marginal reads found its row unchanged since an earlier read,
 * and none of 166 million cluster sums a scaling kernel could keep
 * current was read before normalize() overwrote it.  DESIGN.md
 * section 10 has the table.)
 *
 * Pristine rows.  Both arenas come from calloc, and construction
 * writes no weights: a row that no kernel has written yet is
 * *pristine*, and every read of it (at, windowSpan, the marginals, the
 * source of a blend) sees one shared template row instead -- uniform
 * 1 / (T*C), or, after maskPristineClusters() on a degraded machine,
 * uniform over the alive clusters.  A pristine row's arena bytes stay
 * +0.0 and its pages uncommitted until the first mutating kernel
 * copies the template in; restrictTimeWindow() on a pristine row
 * copies only the narrowed window, so INITTIME never writes the
 * slots it squashes.
 *
 * Rows additionally carry a feasible time window [lo, hi): every slot
 * outside the window is exactly +0.0, and every batched kernel and
 * every marginal iterates the window only.  INITTIME establishes the
 * windows from the earliest-start/latest-finish slack, after which
 * long narrow graphs (fpppp, sha shapes) touch a small fraction of
 * each row.  Skipping exact zeros is bit-transparent: weights are
 * non-negative, x + (+0.0) == x and (+0.0) * f == +0.0 bitwise, so
 * windowed sums and scales produce bit-identical results to full-row
 * walks (the differential test in tests/matrix_differential_test.cc
 * holds the engine to that).
 *
 * The normalize sweep.  normalize() is the one walk over a row a pass
 * pays for after its edits.  Its scaling loop runs cluster by cluster,
 * t ascending, and in the same loop it
 *   - accumulates each cluster's space marginal (the order
 *     refreshSpace would use, so the cached sums are bit-identical)
 *     and caches the preferred cluster next to them, and
 *   - range-tests every weight it writes against the Section-3
 *     tolerances (kWeightSlack, branch-free, so NaN and inf fail) and
 *     tests |sum_c space[c] - 1| <= kSumSlack.
 * A row that passes is *verified*: the scheduler's post-pass guard
 * trusts the verdict, computed on exactly these bytes, and walks only
 * rows that are unverified -- written after their last normalize,
 * reset to uniform, rolled back, or failing the test.  Every mutating
 * kernel clears the verdict.
 *
 * Mutation goes through RowView, a cursor that validates the row
 * index once and then applies batched kernels with no
 * per-element dispatch or bounds rechecks.  The per-element read path
 * at() is the supported compatibility surface for traces and JSON
 * emitters.
 *
 * Every summation a kernel performs accumulates in the exact order
 * the pre-rewrite engine used (space marginals ascend t per cluster,
 * time marginals ascend c per slot, normalize's row total ascends
 * t-major), so the rewrite is bit-identical by construction, not just
 * approximately equal.
 *
 * Undo log.  beginUndo() opens a scope in which every mutating kernel
 * saves its row's pre-image the first time it touches the row: the
 * window bounds, the window's weights per cluster, and the clean
 * flag.  (normalize() on a row that is already clean writes nothing
 * and logs nothing.)  A pristine row is logged as a flag only, so the
 * first pass over a fresh matrix copies no weights, and rolling it
 * back clears its window and makes it pristine again.  rollback()
 * restores exactly the logged rows, and touchedRows() names them, so
 * the scheduler's pass guard, rollback and convergence count cost
 * what the pass touched rather than the whole matrix.
 */

#ifndef CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH
#define CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "ir/instruction.hh"

namespace csched {

class Rng;

/**
 * A calloc-backed allocator whose value-initialization writes nothing:
 * a vector sized with it starts as zero pages the kernel commits only
 * when something writes them.  Stateless, so containers using it stay
 * default-copyable.
 */
template <typename T>
struct ZeroPageAllocator
{
    using value_type = T;

    ZeroPageAllocator() = default;
    template <typename U>
    ZeroPageAllocator(const ZeroPageAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        void *p = std::calloc(n, sizeof(T));
        if (p == nullptr)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }
    void deallocate(T *p, size_t) { std::free(p); }

    /** Default-initialize (calloc already zeroed); copy otherwise. */
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        if constexpr (sizeof...(Args) == 0)
            ::new (static_cast<void *>(p)) U;
        else
            ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    friend bool
    operator==(const ZeroPageAllocator &, const ZeroPageAllocator &)
    {
        return true;
    }
};

/** Dense per-instruction (time x cluster) weight matrix. */
class PreferenceMatrix
{
  public:
    class RowView;
    class ConstRowView;

    /**
     * Section-3 tolerances: the slack every weight gets on [0, 1] for
     * accumulated rounding, and the slack on a row's sum, which adds
     * num_times * num_clusters rounded terms.
     */
    static constexpr double kWeightSlack = 1e-9;
    static constexpr double kSumSlack = 1e-6;

    /**
     * Create a matrix with uniform weights: every (t, c) slot of every
     * instruction gets 1 / (num_times * num_clusters).  Every row
     * starts pristine; nothing is written.
     */
    PreferenceMatrix(int num_instrs, int num_times, int num_clusters);

    int numInstructions() const { return numInstrs_; }
    int numTimes() const { return numTimes_; }
    int numClusters() const { return numClusters_; }

    /** Batched mutation cursor for instruction @p i. */
    RowView row(InstrId i);

    /** Batched read cursor for instruction @p i. */
    ConstRowView row(InstrId i) const;

    /**
     * Weight of instruction @p i at time @p t on cluster @p c.  The
     * per-element compatibility read path (traces, JSON, tests);
     * batched readers go through row().
     */
    double at(InstrId i, int t, int c) const;

    /** normalize() every instruction. */
    void normalizeAll();

    /**
     * Zero @p clusters in every row and renormalize: the masking a
     * degraded machine applies before any pass, bit-identical to a
     * per-row zeroCluster() of each and normalize().  Legal only while
     * every row is pristine; it rewrites the shared template once.
     */
    void maskPristineClusters(std::span<const int> clusters);

    /**
     * True while row @p i holds exactly the bytes a normalize() sweep
     * found within the Section-3 invariants (see the file comment):
     * every weight in [-kWeightSlack, 1 + kWeightSlack] and the
     * cluster sums adding to 1 within kSumSlack.  False says nothing
     * either way; the row has to be walked.
     */
    bool verified(InstrId i) const { return clean_[i] == kVerified; }

    /** Sum over time of W[i][.][c]. */
    double spaceMarginal(InstrId i, int c) const;

    /** Sum over clusters of W[i][t][.]. */
    double timeMarginal(InstrId i, int t) const;

    /** argmax_c of the space marginal (lowest index wins ties). */
    int preferredCluster(InstrId i) const;

    /** argmax_t of the time marginal (lowest index wins ties). */
    int preferredTime(InstrId i) const;

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

    using Arena = std::vector<double, ZeroPageAllocator<double>>;

    // Clean-flag states.  kClean: normalize() would not change the row.
    // kVerified: clean, and that normalize's sweep passed the guard.
    static constexpr uint8_t kDirty = 0;
    static constexpr uint8_t kClean = 1;
    static constexpr uint8_t kVerified = 2;

    void checkInstr(InstrId i) const;
    void checkIndex(InstrId i, int t, int c) const;

    /** Row @p i's own arena storage (all +0.0 while it is pristine). */
    double *rowData(InstrId i) { return arena_.data() + dataOff(i); }

    /**
     * The contiguous T-long block of cluster @p c in row @p i, as
     * every reader sees it: the template's block for a pristine row.
     */
    const double *
    block(InstrId i, int c) const
    {
        const double *row =
            pristine_[i] ? template_.data() : arena_.data() + dataOff(i);
        return row + static_cast<size_t>(c) * numTimes_;
    }

    /** Writable block; only after willMutate() materialized the row. */
    double *
    writeBlock(InstrId i, int c)
    {
        return rowData(i) + static_cast<size_t>(c) * numTimes_;
    }
    double *spaceSums(InstrId i) const;

    size_t
    dataOff(InstrId i) const
    {
        return static_cast<size_t>(i) * rowStride_;
    }

    /** A mutation touched row @p i: cache stale, row not normalized. */
    void markMutated(InstrId i);

    /** Log row @p i's pre-image on its first touch in an open scope. */
    void
    logTouch(InstrId i)
    {
        if (undoOpen_ && !logged_[i])
            logPreImage(i);
    }
    void logPreImage(InstrId i);

    /**
     * Every mutating kernel calls this before it writes row @p i: logs
     * the pre-image, then gives a pristine row its own copy of the
     * template.
     */
    void
    willMutate(InstrId i)
    {
        logTouch(i);
        if (pristine_[i])
            materialize(i);
    }
    void materialize(InstrId i);

    void refreshSpace(InstrId i) const;

    /** Row @p i's time marginals over [t_lo, t_hi), in timeScratch_. */
    const double *sumTimes(InstrId i, int t_lo, int t_hi) const;

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
     * per row, and the N*C space sums (mutable, so const readers can
     * refresh lazily).  Offsets (not pointers) keep the class
     * default-copyable.
     */
    Arena arena_;
    mutable Arena cache_;

    /** T doubles the time-marginal readers sum into. */
    mutable std::vector<double> timeScratch_;

    /** The row every pristine row reads (C blocks of T, window [0, T)). */
    std::vector<double> template_;

    /** Feasible half-open time windows; slots outside are +0.0. */
    std::vector<int> winLo_;
    std::vector<int> winHi_;

    // Per row: 1 while the space sums and the preferred cluster in
    // preferred_ are valid, plus the normalize clean flag: set by
    // normalize(), cleared by every mutation, and normalize() returns
    // immediately when it is still set -- the row sum is exactly the
    // post-normalize sum, no epsilon test needed.
    mutable std::vector<uint8_t> spaceValid_;
    mutable std::vector<int> preferred_;
    std::vector<uint8_t> clean_;

    /** Per row: 1 while the row reads the template, never written. */
    std::vector<uint8_t> pristine_;

    /** One logged pre-image; its weights sit in undoData_ at offset. */
    struct UndoRecord
    {
        int lo;
        int hi;
        uint8_t clean;
        uint8_t pristine; ///< no weights stored: clear, read the template
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
 * is a batched kernel: it applies the mutation over contiguous spans
 * (restricted to the feasible window) with no per-element bounds
 * rechecks, and leaves the row's space cache to the next normalize or
 * read.
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
        return static_cast<const PreferenceMatrix *>(m_)->block(i_, c)[t];
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

    /** Multiply cluster @p c's whole block by @p factor. */
    void
    scaleCluster(int c, double factor)
    {
        m_->rowScaleCluster(i_, c, factor);
    }

    /**
     * Multiply every cluster block by its own factor (an array of
     * numClusters() values), one sweep over the row.
     */
    void
    scaleClusters(const double *factors)
    {
        m_->rowScaleClusters(i_, factors);
    }

    /** Multiply time slot @p t across clusters by @p factor. */
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
     * rescanning.  The rescaling sweep also fills the space marginals
     * and the preferred cluster, and records the guard's verdict.
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

} // namespace csched

#endif // CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH
