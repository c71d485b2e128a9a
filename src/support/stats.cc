#include "support/stats.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace csched {

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        CSCHED_ASSERT(v > 0.0, "geomean requires positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[(values.size() - 1) / 2];
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    CSCHED_ASSERT(p > 0.0 && p <= 100.0,
                  "percentile p must be in (0, 100], got ", p);
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0)
        rank = 1;  // guard against rounding below the first rank
    if (rank > values.size())
        rank = values.size();
    return values[rank - 1];
}

void
Accumulator::add(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    sum_ += value;
    ++count_;
}

double
Accumulator::min() const
{
    CSCHED_ASSERT(count_ > 0, "min() of empty accumulator");
    return min_;
}

double
Accumulator::max() const
{
    CSCHED_ASSERT(count_ > 0, "max() of empty accumulator");
    return max_;
}

double
Accumulator::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

} // namespace csched
