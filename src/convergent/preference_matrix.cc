#include "convergent/preference_matrix.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/rng.hh"

// Bit-identity note.  Every loop below that folds weights into a sum
// accumulates in the exact order the pre-rewrite (time-major,
// full-row) engine used: space marginals ascend t within one cluster,
// time marginals ascend c within one slot, and normalize's row total
// ascends t-major across the whole row.  Slots outside a row's
// feasible window hold exactly +0.0, and for non-negative weights
// x + (+0.0) == x and (+0.0) * f == +0.0 bitwise, so restricting a
// sum or a scale to the window drops only terms that cannot change
// any partial sum.  normalize()'s fused rescale+accumulate keeps the
// store and the accumulation in separate statements so the addend is
// the rounded, stored value.  tests/matrix_differential_test.cc holds
// the engine to bit-identical agreement with the dense reference.

namespace csched {

namespace {

/** Index of the largest of @p n values; the lowest index wins ties. */
int
argmax(const double *values, int n)
{
    int best = 0;
    for (int k = 1; k < n; ++k)
        if (values[k] > values[best])
            best = k;
    return best;
}

/** Row total over [lo, hi), t-major (normalize's accumulation order). */
double
rowTotal(const double *row, int num_times, int num_clusters, int lo, int hi)
{
    double sum = 0.0;
    for (int t = lo; t < hi; ++t)
        for (int c = 0; c < num_clusters; ++c)
            sum += row[static_cast<size_t>(c) * num_times + t];
    return sum;
}

/**
 * normalize()'s arithmetic on a row of @p num_clusters blocks of
 * @p num_times weights, window [lo, hi).  If the row total is ~0 the
 * whole row is reset to the uniform 1 / (T*C) and false is returned.
 * Otherwise one sweep, cluster by cluster with t ascending, rescales
 * the window to sum 1, folds each cluster's sum into space[c]
 * (refreshSpace's order, so the sums are bit-identical) and
 * range-tests every weight written against @p slack; *in_range gets
 * the verdict.  The comparisons are combined without branching, so
 * NaN and inf fail them.
 */
bool
normalizeSweep(double *row, int num_times, int num_clusters, int lo, int hi,
               double slack, double *space, bool *in_range)
{
    const double sum = rowTotal(row, num_times, num_clusters, lo, hi);
    if (sum <= 1e-300) {
        const size_t stride = static_cast<size_t>(num_times) * num_clusters;
        std::fill(row, row + stride, 1.0 / static_cast<double>(stride));
        return false;
    }
    const double inv = 1.0 / sum;
    unsigned ok = 1;
    for (int c = 0; c < num_clusters; ++c) {
        double *b = row + static_cast<size_t>(c) * num_times;
        double cluster_sum = 0.0;
        for (int t = lo; t < hi; ++t) {
            b[t] *= inv;
            cluster_sum += b[t];
            ok &= static_cast<unsigned>(b[t] >= -slack) &
                  static_cast<unsigned>(b[t] <= 1.0 + slack);
        }
        space[c] = cluster_sum;
    }
    *in_range = ok != 0;
    return true;
}

/** Cluster sums over [lo, hi): t ascending within each cluster. */
void
sumClusters(const double *row, int num_times, int num_clusters, int lo,
            int hi, double *space)
{
    for (int c = 0; c < num_clusters; ++c) {
        const double *b = row + static_cast<size_t>(c) * num_times;
        double sum = 0.0;
        for (int t = lo; t < hi; ++t)
            sum += b[t];
        space[c] = sum;
    }
}

/**
 * Slot sums over [lo, hi), c ascending within each slot; walked
 * cluster-major, which performs the same additions in the same order.
 */
void
sumSlots(const double *row, int num_times, int num_clusters, int lo, int hi,
         double *time)
{
    std::fill(time + lo, time + hi, 0.0);
    for (int c = 0; c < num_clusters; ++c) {
        const double *b = row + static_cast<size_t>(c) * num_times;
        for (int t = lo; t < hi; ++t)
            time[t] += b[t];
    }
}

} // namespace

PreferenceMatrix::PreferenceMatrix(int num_instrs, int num_times,
                                   int num_clusters)
    : numInstrs_(num_instrs),
      numTimes_(num_times),
      numClusters_(num_clusters),
      rowStride_(static_cast<size_t>(num_times) * num_clusters)
{
    CSCHED_ASSERT(num_instrs > 0, "matrix needs instructions");
    CSCHED_ASSERT(num_times > 0, "matrix needs time slots");
    CSCHED_ASSERT(num_clusters > 0, "matrix needs clusters");
    // Zero pages from calloc: every row starts pristine and reads the
    // template, so neither arena is written here.
    arena_.resize(static_cast<size_t>(num_instrs) * rowStride_);
    cache_.resize(static_cast<size_t>(num_instrs) * num_clusters);
    timeScratch_.resize(num_times);
    template_.assign(rowStride_, 1.0 / static_cast<double>(rowStride_));
    winLo_.assign(num_instrs, 0);
    winHi_.assign(num_instrs, num_times);
    spaceValid_.assign(num_instrs, 0);
    preferred_.assign(num_instrs, 0);
    clean_.assign(num_instrs, kDirty);
    pristine_.assign(num_instrs, 1);
    logged_.assign(num_instrs, 0);
}

void
PreferenceMatrix::maskPristineClusters(std::span<const int> clusters)
{
    CSCHED_ASSERT(std::all_of(pristine_.begin(), pristine_.end(),
                              [](uint8_t p) { return p != 0; }),
                  "maskPristineClusters needs every row pristine");
    for (const int c : clusters) {
        checkIndex(0, 0, c);
        std::fill_n(template_.begin() + static_cast<size_t>(c) * numTimes_,
                    numTimes_, 0.0);
    }
    // rowNormalize's arithmetic, once, on the template.
    std::vector<double> space(numClusters_);
    bool in_range = false;
    normalizeSweep(template_.data(), numTimes_, numClusters_, 0, numTimes_,
                   kWeightSlack, space.data(), &in_range);
    // Every row is now in the state a per-row normalize leaves.
    std::fill(clean_.begin(), clean_.end(), kClean);
    std::fill(spaceValid_.begin(), spaceValid_.end(), 0);
}

void
PreferenceMatrix::checkInstr(InstrId i) const
{
    CSCHED_ASSERT(i >= 0 && i < numInstrs_, "instruction ", i,
                  " out of range");
}

void
PreferenceMatrix::checkIndex(InstrId i, int t, int c) const
{
    checkInstr(i);
    CSCHED_ASSERT(t >= 0 && t < numTimes_, "time ", t, " out of range");
    CSCHED_ASSERT(c >= 0 && c < numClusters_, "cluster ", c,
                  " out of range");
}

double *
PreferenceMatrix::spaceSums(InstrId i) const
{
    return cache_.data() + static_cast<size_t>(i) * numClusters_;
}

void
PreferenceMatrix::markMutated(InstrId i)
{
    spaceValid_[i] = 0;
    clean_[i] = kDirty;
}

void
PreferenceMatrix::materialize(InstrId i)
{
    std::copy(template_.begin(), template_.end(), rowData(i));
    pristine_[i] = 0;
}

void
PreferenceMatrix::logPreImage(InstrId i)
{
    // Weights first, then the record, then the flag: a throwing
    // allocation leaves no record pointing at missing weights.
    const size_t offset = undoData_.size();
    if (!pristine_[i]) {
        for (int c = 0; c < numClusters_; ++c) {
            const double *b = block(i, c);
            undoData_.insert(undoData_.end(), b + winLo_[i], b + winHi_[i]);
        }
    }
    undo_.push_back({winLo_[i], winHi_[i], clean_[i], pristine_[i], offset});
    touched_.push_back(i);
    logged_[i] = 1;
}

void
PreferenceMatrix::beginUndo()
{
    for (const InstrId i : touched_)
        logged_[i] = 0;
    touched_.clear();
    undo_.clear();
    undoData_.clear();
    // A scope logs each row at most once, and never more than its
    // window, so the arena's size bounds the log.  Reserving it up
    // front avoids the reallocation copies (and their transient
    // double footprint) of a log grown by doubling; pages the log
    // never writes are never committed.
    undoData_.reserve(arena_.size());
    undoOpen_ = true;
}

void
PreferenceMatrix::rollback()
{
    for (size_t k = 0; k < touched_.size(); ++k) {
        const InstrId i = touched_[k];
        const UndoRecord &saved = undo_[k];
        // The current window may be wider than the saved one (set and
        // blend widen): clear it, so every slot outside the restored
        // window is +0.0 again -- and a row going back to pristine is
        // all +0.0 again.
        if (!pristine_[i]) {
            for (int c = 0; c < numClusters_; ++c) {
                double *b = writeBlock(i, c);
                std::fill(b + winLo_[i], b + winHi_[i], 0.0);
            }
        }
        if (!saved.pristine) {
            const double *from = undoData_.data() + saved.offset;
            const int width = saved.hi - saved.lo;
            for (int c = 0; c < numClusters_; ++c) {
                std::copy(from, from + width, writeBlock(i, c) + saved.lo);
                from += width;
            }
        }
        winLo_[i] = saved.lo;
        winHi_[i] = saved.hi;
        // The restored bytes are clean if they were, but the guard
        // walks them again before it trusts them.
        clean_[i] = std::min(saved.clean, kClean);
        pristine_[i] = saved.pristine;
        spaceValid_[i] = 0;
        logged_[i] = 0;
    }
    touched_.clear();
    undo_.clear();
    undoData_.clear();
}

void
PreferenceMatrix::refreshSpace(InstrId i) const
{
    if (spaceValid_[i])
        return;
    double *space = spaceSums(i);
    sumClusters(block(i, 0), numTimes_, numClusters_, winLo_[i], winHi_[i],
                space);
    preferred_[i] = argmax(space, numClusters_);
    spaceValid_[i] = 1;
}

const double *
PreferenceMatrix::sumTimes(InstrId i, int t_lo, int t_hi) const
{
    // Only [t_lo, t_hi) is written: callers treat the other slots as
    // the +0.0 the weights outside the window are.
    sumSlots(block(i, 0), numTimes_, numClusters_, t_lo, t_hi,
             timeScratch_.data());
    return timeScratch_.data();
}

double
PreferenceMatrix::at(InstrId i, int t, int c) const
{
    checkIndex(i, t, c);
    return block(i, c)[t];
}

// ---- batched row kernels -------------------------------------------

void
PreferenceMatrix::rowSet(InstrId i, int t, int c, double value)
{
    checkIndex(i, t, c);
    CSCHED_ASSERT(value >= 0.0, "negative weight ", value);
    willMutate(i);
    writeBlock(i, c)[t] = value;
    if (value != 0.0) {
        // Widen the feasible window; the gap slots are already zero.
        winLo_[i] = std::min(winLo_[i], t);
        winHi_[i] = std::max(winHi_[i], t + 1);
    }
    markMutated(i);
}

void
PreferenceMatrix::rowScaleSlot(InstrId i, int t, int c, double factor)
{
    checkIndex(i, t, c);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    willMutate(i);
    writeBlock(i, c)[t] *= factor;
    markMutated(i);
}

void
PreferenceMatrix::rowScaleCluster(InstrId i, int c, double factor)
{
    checkIndex(i, 0, c);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    willMutate(i);
    const int hi = winHi_[i];
    double *b = writeBlock(i, c);
    for (int t = winLo_[i]; t < hi; ++t)
        b[t] *= factor;
    markMutated(i);
}

void
PreferenceMatrix::rowScaleClusters(InstrId i, const double *factors)
{
    checkInstr(i);
    willMutate(i);
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    for (int c = 0; c < numClusters_; ++c) {
        const double factor = factors[c];
        CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
        double *b = writeBlock(i, c);
        for (int t = lo; t < hi; ++t)
            b[t] *= factor;
    }
    markMutated(i);
}

void
PreferenceMatrix::rowScaleTime(InstrId i, int t, double factor)
{
    checkIndex(i, t, 0);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    willMutate(i);
    double *r = rowData(i);
    for (int c = 0; c < numClusters_; ++c)
        r[static_cast<size_t>(c) * numTimes_ + t] *= factor;
    markMutated(i);
}

void
PreferenceMatrix::rowZeroCluster(InstrId i, int c)
{
    checkIndex(i, 0, c);
    willMutate(i);
    double *b = writeBlock(i, c);
    std::fill(b + winLo_[i], b + winHi_[i], 0.0);
    markMutated(i);
}

void
PreferenceMatrix::rowRestrictTimeWindow(InstrId i, int lo, int hi)
{
    checkInstr(i);
    logTouch(i);
    lo = std::max(lo, 0);
    hi = std::min(hi, numTimes_);
    const int new_lo = std::max(winLo_[i], lo);
    const int new_hi = std::min(winHi_[i], hi);
    // An empty feasible window makes the whole row zero (a following
    // normalize() resets it to uniform).
    const bool empty = new_lo >= new_hi;
    if (pristine_[i]) {
        // The row's own bytes are all +0.0: copy in only the narrowed
        // window of the template.
        if (!empty) {
            for (int c = 0; c < numClusters_; ++c) {
                const double *from = block(i, c);
                std::copy(from + new_lo, from + new_hi,
                          writeBlock(i, c) + new_lo);
            }
        }
        pristine_[i] = 0;
    } else {
        for (int c = 0; c < numClusters_; ++c) {
            double *b = writeBlock(i, c);
            if (empty) {
                std::fill(b + winLo_[i], b + winHi_[i], 0.0);
            } else {
                std::fill(b + winLo_[i], b + new_lo, 0.0);
                std::fill(b + new_hi, b + winHi_[i], 0.0);
            }
        }
    }
    winLo_[i] = empty ? 0 : new_lo;
    winHi_[i] = empty ? 0 : new_hi;
    markMutated(i);
}

void
PreferenceMatrix::rowAddPositiveNoise(InstrId i, Rng &rng,
                                      double amplitude)
{
    checkInstr(i);
    CSCHED_ASSERT(amplitude >= 0.0, "negative amplitude ", amplitude);
    willMutate(i);
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    double *r = rowData(i);
    // Ascending (t, c) so the draw sequence matches the per-element
    // formulation; zero slots (infeasible or squashed) draw nothing.
    for (int t = lo; t < hi; ++t) {
        for (int c = 0; c < numClusters_; ++c) {
            double &slot = r[static_cast<size_t>(c) * numTimes_ + t];
            if (slot <= 0.0)
                continue;
            slot = slot + rng.uniform() * amplitude;
        }
    }
    markMutated(i);
}

void
PreferenceMatrix::rowBlendFrom(InstrId i, InstrId other, double w)
{
    checkInstr(i);
    checkInstr(other);
    CSCHED_ASSERT(w >= 0.0 && w <= 1.0, "blend weight ", w,
                  " outside [0, 1]");
    willMutate(i);
    // The blended row can pick up mass anywhere the source has some:
    // widen to the union of the two windows.  A pristine source reads
    // the template.
    const int lo = std::min(winLo_[i], winLo_[other]);
    const int hi = std::max(winHi_[i], winHi_[other]);
    for (int c = 0; c < numClusters_; ++c) {
        double *dst = writeBlock(i, c);
        const double *src = block(other, c);
        for (int t = lo; t < hi; ++t)
            dst[t] = w * dst[t] + (1.0 - w) * src[t];
    }
    winLo_[i] = lo;
    winHi_[i] = hi;
    markMutated(i);
}

void
PreferenceMatrix::rowNormalize(InstrId i)
{
    checkInstr(i);
    if (clean_[i] != kDirty) {
        // Unchanged since the last normalize: the row sum is exactly
        // the post-normalize sum, so rescanning cannot improve it.
        return;
    }
    willMutate(i);
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    double *space = spaceSums(i);
    bool in_range = false;
    if (!normalizeSweep(rowData(i), numTimes_, numClusters_, lo, hi,
                        kWeightSlack, space, &in_range)) {
        // Every slot was squashed and the row was reset to uniform
        // rather than left unschedulable.  The guard walks the reset
        // row: it is clean but not verified.
        winLo_[i] = 0;
        winHi_[i] = numTimes_;
        spaceValid_[i] = 0;
        clean_[i] = kClean;
        return;
    }
    double total = 0.0;
    for (int c = 0; c < numClusters_; ++c)
        total += space[c];
    preferred_[i] = argmax(space, numClusters_);
    spaceValid_[i] = 1;
    clean_[i] = in_range && std::abs(total - 1.0) <= kSumSlack ? kVerified
                                                                : kClean;
}

void
PreferenceMatrix::normalizeAll()
{
    for (InstrId i = 0; i < numInstrs_; ++i)
        rowNormalize(i);
}

// ---- derived quantities --------------------------------------------

double
PreferenceMatrix::spaceMarginal(InstrId i, int c) const
{
    checkIndex(i, 0, c);
    refreshSpace(i);
    return spaceSums(i)[c];
}

double
PreferenceMatrix::timeMarginal(InstrId i, int t) const
{
    checkIndex(i, t, 0);
    if (t < winLo_[i] || t >= winHi_[i])
        return 0.0;
    return sumTimes(i, t, t + 1)[t];
}

int
PreferenceMatrix::preferredCluster(InstrId i) const
{
    checkInstr(i);
    refreshSpace(i);
    return preferred_[i];
}

int
PreferenceMatrix::preferredTime(InstrId i) const
{
    checkInstr(i);
    // The argmax over every slot, scanning only the window: the slots
    // outside it are +0.0, so slot 0 is the answer until some window
    // slot beats 0 (or beats slot 0 itself, when the window starts
    // there).
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    const double *time = sumTimes(i, lo, hi);
    int best = 0;
    double top = lo == 0 && hi > 0 ? time[0] : 0.0;
    for (int t = std::max(lo, 1); t < hi; ++t) {
        if (time[t] > top) {
            top = time[t];
            best = t;
        }
    }
    return best;
}

int
PreferenceMatrix::runnerUpCluster(InstrId i) const
{
    checkInstr(i);
    if (numClusters_ == 1)
        return 0;
    const int preferred = preferredCluster(i);
    const double *space = spaceSums(i);
    int best = preferred == 0 ? 1 : 0;
    for (int c = 0; c < numClusters_; ++c)
        if (c != preferred && space[c] > space[best])
            best = c;
    return best;
}

double
PreferenceMatrix::confidence(InstrId i) const
{
    checkInstr(i);
    if (numClusters_ == 1)
        return 1.0;
    const double top = spaceMarginal(i, preferredCluster(i));
    const double second = spaceMarginal(i, runnerUpCluster(i));
    if (second <= 1e-300)
        return 1e9;
    return top / second;
}

std::vector<int>
PreferenceMatrix::preferredClusters() const
{
    std::vector<int> out(numInstrs_);
    for (InstrId i = 0; i < numInstrs_; ++i)
        out[i] = preferredCluster(i);
    return out;
}

std::vector<int>
PreferenceMatrix::preferredTimes() const
{
    std::vector<int> out(numInstrs_);
    for (InstrId i = 0; i < numInstrs_; ++i)
        out[i] = preferredTime(i);
    return out;
}

// ---- row-view readers ----------------------------------------------

double
PreferenceMatrix::ConstRowView::spaceMarginal(int c) const
{
    return m_->spaceMarginal(i_, c);
}

int
PreferenceMatrix::ConstRowView::preferredCluster() const
{
    return m_->preferredCluster(i_);
}

} // namespace csched
