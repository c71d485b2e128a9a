#include "support/backoff.hh"

#include <algorithm>

#include "support/rng.hh"
#include "support/str.hh"

namespace csched {

int
jitteredBackoffMs(const std::string &key, uint64_t n, int base, int cap,
                  int step)
{
    const int raw = std::min(std::max(1, base) << std::clamp(step, 0, 6),
                             std::max(1, cap));
    Rng rng(fnv1aHash(key) ^ n);
    const double jitter = 0.5 + rng.uniform();
    return std::max(1, static_cast<int>(raw * jitter));
}

int
CrashLoopBreaker::failure()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (++run_ < threshold_)
        return 0;
    run_ = 0;
    return jitteredBackoffMs(key_, ++trips_, cooldownMs_, cooldownMs_, 0);
}

void
CrashLoopBreaker::success()
{
    std::lock_guard<std::mutex> lock(mutex_);
    run_ = 0;
}

} // namespace csched
