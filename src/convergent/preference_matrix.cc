#include "convergent/preference_matrix.hh"

#include <algorithm>

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
// any partial sum.  Fused multiply+accumulate kernels keep the store
// and the accumulation in separate statements so the addend is the
// rounded, stored value.  tests/matrix_differential_test.cc holds the
// engine to bit-identical agreement with the dense reference.

namespace csched {

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
    const double uniform = 1.0 / static_cast<double>(rowStride_);
    arena_.assign(static_cast<size_t>(num_instrs) * rowStride_, uniform);
    timeOff_ = static_cast<size_t>(num_instrs) * num_clusters;
    cache_.assign(timeOff_ + static_cast<size_t>(num_instrs) * num_times,
                  0.0);
    winLo_.assign(num_instrs, 0);
    winHi_.assign(num_instrs, num_times);
    spaceValid_.assign(num_instrs, 0);
    timeValid_.assign(num_instrs, 0);
    clean_.assign(num_instrs, 0);
    pristine_.assign(num_instrs, 1);
    logged_.assign(num_instrs, 0);
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

double *
PreferenceMatrix::timeSums(InstrId i) const
{
    return cache_.data() + timeOff_ + static_cast<size_t>(i) * numTimes_;
}

void
PreferenceMatrix::markMutated(InstrId i)
{
    spaceValid_[i] = 0;
    timeValid_[i] = 0;
    clean_[i] = 0;
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
    const double uniform = 1.0 / static_cast<double>(rowStride_);
    for (size_t k = 0; k < touched_.size(); ++k) {
        const InstrId i = touched_[k];
        const UndoRecord &saved = undo_[k];
        if (saved.pristine) {
            double *r = rowData(i);
            std::fill(r, r + rowStride_, uniform);
        } else {
            // The current window may be wider than the saved one (set
            // and blend widen): clear it, so every slot outside the
            // restored window is +0.0 again.
            const double *from = undoData_.data() + saved.offset;
            const int width = saved.hi - saved.lo;
            for (int c = 0; c < numClusters_; ++c) {
                double *b = block(i, c);
                std::fill(b + winLo_[i], b + winHi_[i], 0.0);
                std::copy(from, from + width, b + saved.lo);
                from += width;
            }
        }
        winLo_[i] = saved.lo;
        winHi_[i] = saved.hi;
        clean_[i] = saved.clean;
        pristine_[i] = saved.pristine;
        spaceValid_[i] = 0;
        timeValid_[i] = 0;
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
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    double *space = spaceSums(i);
    for (int c = 0; c < numClusters_; ++c) {
        const double *b = block(i, c);
        double sum = 0.0;
        for (int t = lo; t < hi; ++t)
            sum += b[t];
        space[c] = sum;
    }
    spaceValid_[i] = 1;
}

void
PreferenceMatrix::refreshTime(InstrId i) const
{
    if (timeValid_[i])
        return;
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    const double *r = rowData(i);
    double *time = timeSums(i);
    std::fill(time, time + numTimes_, 0.0);
    for (int t = lo; t < hi; ++t) {
        double sum = 0.0;
        for (int c = 0; c < numClusters_; ++c)
            sum += r[static_cast<size_t>(c) * numTimes_ + t];
        time[t] = sum;
    }
    timeValid_[i] = 1;
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
    block(i, c)[t] = value;
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
    block(i, c)[t] *= factor;
    markMutated(i);
}

void
PreferenceMatrix::rowScaleCluster(InstrId i, int c, double factor)
{
    checkIndex(i, 0, c);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    willMutate(i);
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    double *b = block(i, c);
    if (spaceValid_[i]) {
        // Fused: refresh this cluster's space marginal in the same
        // sweep (the other clusters' blocks are untouched, so their
        // cached sums stay exact).
        double sum = 0.0;
        for (int t = lo; t < hi; ++t) {
            b[t] *= factor;
            sum += b[t];
        }
        spaceSums(i)[c] = sum;
    } else {
        for (int t = lo; t < hi; ++t)
            b[t] *= factor;
    }
    timeValid_[i] = 0;
    clean_[i] = 0;
}

void
PreferenceMatrix::rowScaleClusters(InstrId i, const double *factors)
{
    checkInstr(i);
    willMutate(i);
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    const bool keep_space = spaceValid_[i] != 0;
    double *space = spaceSums(i);
    for (int c = 0; c < numClusters_; ++c) {
        const double factor = factors[c];
        CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
        double *b = block(i, c);
        if (keep_space) {
            double sum = 0.0;
            for (int t = lo; t < hi; ++t) {
                b[t] *= factor;
                sum += b[t];
            }
            space[c] = sum;
        } else {
            for (int t = lo; t < hi; ++t)
                b[t] *= factor;
        }
    }
    timeValid_[i] = 0;
    clean_[i] = 0;
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
    if (timeValid_[i]) {
        double sum = 0.0;
        for (int c = 0; c < numClusters_; ++c)
            sum += r[static_cast<size_t>(c) * numTimes_ + t];
        timeSums(i)[t] = sum;
    }
    spaceValid_[i] = 0;
    clean_[i] = 0;
}

void
PreferenceMatrix::rowZeroCluster(InstrId i, int c)
{
    checkIndex(i, 0, c);
    willMutate(i);
    double *b = block(i, c);
    std::fill(b + winLo_[i], b + winHi_[i], 0.0);
    if (spaceValid_[i])
        spaceSums(i)[c] = 0.0;
    timeValid_[i] = 0;
    clean_[i] = 0;
}

void
PreferenceMatrix::rowRestrictTimeWindow(InstrId i, int lo, int hi)
{
    checkInstr(i);
    willMutate(i);
    lo = std::max(lo, 0);
    hi = std::min(hi, numTimes_);
    const int new_lo = std::max(winLo_[i], lo);
    const int new_hi = std::min(winHi_[i], hi);
    if (new_lo >= new_hi) {
        // Empty feasible window: the whole row becomes zero (a
        // following normalize() resets it to uniform).
        for (int c = 0; c < numClusters_; ++c) {
            double *b = block(i, c);
            std::fill(b + winLo_[i], b + winHi_[i], 0.0);
        }
        winLo_[i] = 0;
        winHi_[i] = 0;
    } else {
        for (int c = 0; c < numClusters_; ++c) {
            double *b = block(i, c);
            std::fill(b + winLo_[i], b + new_lo, 0.0);
            std::fill(b + new_hi, b + winHi_[i], 0.0);
        }
        winLo_[i] = new_lo;
        winHi_[i] = new_hi;
    }
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
    // widen to the union of the two windows.
    const int lo = std::min(winLo_[i], winLo_[other]);
    const int hi = std::max(winHi_[i], winHi_[other]);
    for (int c = 0; c < numClusters_; ++c) {
        double *dst = block(i, c);
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
    if (clean_[i]) {
        // Unchanged since the last normalize: the row sum is exactly
        // the post-normalize sum, so rescanning cannot improve it.
        return;
    }
    willMutate(i);
    const int lo = winLo_[i];
    const int hi = winHi_[i];
    double *r = rowData(i);
    // t-major accumulation, matching the flat full-row sum of the
    // per-element engine.
    double sum = 0.0;
    for (int t = lo; t < hi; ++t)
        for (int c = 0; c < numClusters_; ++c)
            sum += r[static_cast<size_t>(c) * numTimes_ + t];
    if (sum <= 1e-300) {
        // Every slot was squashed; reset to uniform rather than leave
        // the instruction unschedulable.
        const double uniform = 1.0 / static_cast<double>(rowStride_);
        std::fill(r, r + rowStride_, uniform);
        winLo_[i] = 0;
        winHi_[i] = numTimes_;
    } else {
        const double inv = 1.0 / sum;
        for (int c = 0; c < numClusters_; ++c) {
            double *b = block(i, c);
            for (int t = lo; t < hi; ++t)
                b[t] *= inv;
        }
    }
    spaceValid_[i] = 0;
    timeValid_[i] = 0;
    clean_[i] = 1;
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
    refreshTime(i);
    return timeSums(i)[t];
}

int
PreferenceMatrix::preferredCluster(InstrId i) const
{
    checkInstr(i);
    refreshSpace(i);
    const double *space = spaceSums(i);
    int best = 0;
    for (int c = 1; c < numClusters_; ++c)
        if (space[c] > space[best])
            best = c;
    return best;
}

int
PreferenceMatrix::preferredTime(InstrId i) const
{
    checkInstr(i);
    refreshTime(i);
    const double *time = timeSums(i);
    int best = 0;
    for (int t = 1; t < numTimes_; ++t)
        if (time[t] > time[best])
            best = t;
    return best;
}

int
PreferenceMatrix::expectedTime(InstrId i) const
{
    checkInstr(i);
    refreshTime(i);
    const double *time = timeSums(i);
    double total = 0.0;
    double weighted = 0.0;
    for (int t = winLo_[i]; t < winHi_[i]; ++t) {
        total += time[t];
        weighted += time[t] * t;
    }
    if (total <= 1e-300)
        return 0;
    return static_cast<int>(weighted / total + 0.5);
}

int
PreferenceMatrix::runnerUpCluster(InstrId i) const
{
    if (numClusters_ == 1)
        return 0;
    refreshSpace(i);
    const double *space = spaceSums(i);
    const int preferred = preferredCluster(i);
    int best = preferred == 0 ? 1 : 0;
    for (int c = 0; c < numClusters_; ++c)
        if (c != preferred && space[c] > space[best])
            best = c;
    return best;
}

double
PreferenceMatrix::confidence(InstrId i) const
{
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
