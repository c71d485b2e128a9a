/**
 * @file
 * Small statistics helpers used by the evaluation harness: means,
 * geometric means, and a streaming accumulator for min/max/mean.
 */

#ifndef CSCHED_SUPPORT_STATS_HH
#define CSCHED_SUPPORT_STATS_HH

#include <cstddef>
#include <vector>

namespace csched {

/** Arithmetic mean; returns 0 for an empty vector. */
double mean(const std::vector<double> &values);

/**
 * Geometric mean; all values must be positive.  This is the standard
 * aggregate for speedup ratios (used for the paper's "average
 * improvement" numbers).
 */
double geomean(const std::vector<double> &values);

/**
 * Lower median (the element at index (n-1)/2 of the sorted sample);
 * returns 0 for an empty vector.  The lower median is deterministic
 * and never interpolates, which keeps bench reports exact sample
 * values rather than synthetic averages.
 */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile: the smallest sorted element whose rank
 * covers at least p percent of the sample (index ceil(p/100 * n) - 1).
 * Like median(), this always returns an actual sample value and never
 * interpolates, so reports stay deterministic and exact.  p must be in
 * (0, 100]; returns 0 for an empty vector.  percentile(v, 50) equals
 * median(v).
 */
double percentile(std::vector<double> values, double p);

/** Streaming accumulator for count/min/max/mean of a sample set. */
class Accumulator
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double value);

    size_t count() const { return count_; }
    double min() const;
    double max() const;
    double mean() const;
    double sum() const { return sum_; }

  private:
    size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace csched

#endif // CSCHED_SUPPORT_STATS_HH
