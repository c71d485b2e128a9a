#include "convergent/dense_reference_matrix.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/rng.hh"

namespace csched {

DenseReferenceMatrix::DenseReferenceMatrix(int num_instrs, int num_times,
                                           int num_clusters)
    : numInstrs_(num_instrs),
      numTimes_(num_times),
      numClusters_(num_clusters),
      rowSize_(static_cast<size_t>(num_times) * num_clusters)
{
    CSCHED_ASSERT(num_instrs > 0, "matrix needs instructions");
    CSCHED_ASSERT(num_times > 0, "matrix needs time slots");
    CSCHED_ASSERT(num_clusters > 0, "matrix needs clusters");
    const double uniform = 1.0 / static_cast<double>(rowSize_);
    data_.assign(static_cast<size_t>(num_instrs) * rowSize_, uniform);
    spaceSum_.assign(static_cast<size_t>(num_instrs) * num_clusters, 0.0);
    timeSum_.assign(static_cast<size_t>(num_instrs) * num_times, 0.0);
    dirty_.assign(num_instrs, true);
    clean_.assign(num_instrs, 0);
}

void
DenseReferenceMatrix::checkIndex(InstrId i, int t, int c) const
{
    CSCHED_ASSERT(i >= 0 && i < numInstrs_, "instruction ", i,
                  " out of range");
    CSCHED_ASSERT(t >= 0 && t < numTimes_, "time ", t, " out of range");
    CSCHED_ASSERT(c >= 0 && c < numClusters_, "cluster ", c,
                  " out of range");
}

double
DenseReferenceMatrix::at(InstrId i, int t, int c) const
{
    checkIndex(i, t, c);
    return row(i)[static_cast<size_t>(t) * numClusters_ + c];
}

void
DenseReferenceMatrix::set(InstrId i, int t, int c, double value)
{
    checkIndex(i, t, c);
    CSCHED_ASSERT(value >= 0.0, "negative weight ", value);
    row(i)[static_cast<size_t>(t) * numClusters_ + c] = value;
    touch(i);
}

void
DenseReferenceMatrix::scale(InstrId i, int t, int c, double factor)
{
    checkIndex(i, t, c);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    row(i)[static_cast<size_t>(t) * numClusters_ + c] *= factor;
    touch(i);
}

void
DenseReferenceMatrix::scaleCluster(InstrId i, int c, double factor)
{
    checkIndex(i, 0, c);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    double *r = row(i);
    for (int t = 0; t < numTimes_; ++t)
        r[static_cast<size_t>(t) * numClusters_ + c] *= factor;
    touch(i);
}

void
DenseReferenceMatrix::scaleTime(InstrId i, int t, double factor)
{
    checkIndex(i, t, 0);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    double *r = row(i) + static_cast<size_t>(t) * numClusters_;
    for (int c = 0; c < numClusters_; ++c)
        r[c] *= factor;
    touch(i);
}

void
DenseReferenceMatrix::blend(InstrId i, InstrId other, double w)
{
    checkIndex(i, 0, 0);
    checkIndex(other, 0, 0);
    CSCHED_ASSERT(w >= 0.0 && w <= 1.0, "blend weight ", w,
                  " outside [0, 1]");
    double *dst = row(i);
    const double *src = row(other);
    for (size_t k = 0; k < rowSize_; ++k)
        dst[k] = w * dst[k] + (1.0 - w) * src[k];
    touch(i);
}

void
DenseReferenceMatrix::normalize(InstrId i)
{
    checkIndex(i, 0, 0);
    if (clean_[i])
        return;
    double *r = row(i);
    double sum = 0.0;
    for (size_t k = 0; k < rowSize_; ++k)
        sum += r[k];
    if (sum <= 1e-300) {
        const double uniform = 1.0 / static_cast<double>(rowSize_);
        for (size_t k = 0; k < rowSize_; ++k)
            r[k] = uniform;
    } else {
        const double inv = 1.0 / sum;
        for (size_t k = 0; k < rowSize_; ++k)
            r[k] *= inv;
    }
    touch(i);
    clean_[i] = 1;
}

void
DenseReferenceMatrix::normalizeAll()
{
    for (InstrId i = 0; i < numInstrs_; ++i)
        normalize(i);
}

void
DenseReferenceMatrix::restrictTimeWindow(InstrId i, int lo, int hi)
{
    checkIndex(i, 0, 0);
    for (int t = 0; t < numTimes_; ++t) {
        if (t >= lo && t < hi)
            continue;
        for (int c = 0; c < numClusters_; ++c)
            row(i)[static_cast<size_t>(t) * numClusters_ + c] = 0.0;
    }
    touch(i);
}

void
DenseReferenceMatrix::addPositiveNoise(InstrId i, Rng &rng,
                                       double amplitude)
{
    checkIndex(i, 0, 0);
    for (int t = 0; t < numTimes_; ++t) {
        for (int c = 0; c < numClusters_; ++c) {
            double &slot = row(i)[static_cast<size_t>(t) * numClusters_ + c];
            if (slot <= 0.0)
                continue;
            slot = slot + rng.uniform() * amplitude;
        }
    }
    touch(i);
}

void
DenseReferenceMatrix::touch(InstrId i)
{
    dirty_[i] = true;
    clean_[i] = 0;
}

void
DenseReferenceMatrix::refresh(InstrId i) const
{
    if (!dirty_[i])
        return;
    const double *r = row(i);
    double *space = &spaceSum_[static_cast<size_t>(i) * numClusters_];
    double *time = &timeSum_[static_cast<size_t>(i) * numTimes_];
    std::fill(space, space + numClusters_, 0.0);
    std::fill(time, time + numTimes_, 0.0);
    for (int t = 0; t < numTimes_; ++t) {
        const double *slot = r + static_cast<size_t>(t) * numClusters_;
        for (int c = 0; c < numClusters_; ++c) {
            space[c] += slot[c];
            time[t] += slot[c];
        }
    }
    dirty_[i] = false;
}

double
DenseReferenceMatrix::spaceMarginal(InstrId i, int c) const
{
    checkIndex(i, 0, c);
    refresh(i);
    return spaceSum_[static_cast<size_t>(i) * numClusters_ + c];
}

double
DenseReferenceMatrix::timeMarginal(InstrId i, int t) const
{
    checkIndex(i, t, 0);
    refresh(i);
    return timeSum_[static_cast<size_t>(i) * numTimes_ + t];
}

int
DenseReferenceMatrix::preferredCluster(InstrId i) const
{
    checkIndex(i, 0, 0);
    refresh(i);
    const double *space = &spaceSum_[static_cast<size_t>(i) * numClusters_];
    int best = 0;
    for (int c = 1; c < numClusters_; ++c)
        if (space[c] > space[best])
            best = c;
    return best;
}

int
DenseReferenceMatrix::preferredTime(InstrId i) const
{
    checkIndex(i, 0, 0);
    refresh(i);
    const double *time = &timeSum_[static_cast<size_t>(i) * numTimes_];
    int best = 0;
    for (int t = 1; t < numTimes_; ++t)
        if (time[t] > time[best])
            best = t;
    return best;
}

int
DenseReferenceMatrix::runnerUpCluster(InstrId i) const
{
    if (numClusters_ == 1)
        return 0;
    refresh(i);
    const double *space = &spaceSum_[static_cast<size_t>(i) * numClusters_];
    const int preferred = preferredCluster(i);
    int best = preferred == 0 ? 1 : 0;
    for (int c = 0; c < numClusters_; ++c)
        if (c != preferred && space[c] > space[best])
            best = c;
    return best;
}

double
DenseReferenceMatrix::confidence(InstrId i) const
{
    if (numClusters_ == 1)
        return 1.0;
    const double top = spaceMarginal(i, preferredCluster(i));
    const double second = spaceMarginal(i, runnerUpCluster(i));
    if (second <= 1e-300)
        return 1e9;
    return top / second;
}

} // namespace csched
