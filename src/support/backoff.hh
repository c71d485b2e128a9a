/**
 * @file
 * The one jittered-backoff recipe and the one crash-loop breaker on
 * it.  Grid retries and dist reconnects draw their delays directly;
 * dist's host quarantine and serve's degraded window are breakers.
 * Each site has its own key prefix and constants.
 *
 * A delay is a pure function of its arguments -- never of wall clock
 * or thread identity -- so delays recorded in diagnostics are
 * byte-identical at any --jobs value, and anyone can recompute them.
 */

#ifndef CSCHED_SUPPORT_BACKOFF_HH
#define CSCHED_SUPPORT_BACKOFF_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

namespace csched {

/**
 * Deterministic jittered exponential delay in milliseconds:
 * min(base * 2^step, cap) scaled by a jitter factor in [0.5, 1.5),
 * never below 1 ms.  The jitter is the first draw of an Rng seeded
 * with fnv1aHash(@p key) ^ @p n, so @p n (an attempt or trip ordinal)
 * decorrelates successive delays of one @p key.  @p step is clamped
 * to [0, 6]; @p base and @p cap below 1 count as 1.
 */
int jitteredBackoffMs(const std::string &key, uint64_t n, int base,
                      int cap, int step);

/**
 * Trips when a run of consecutive failures reaches a threshold; the
 * trip restarts the run and yields a cooldown of
 * jitteredBackoffMs(key, trip, cooldown, cooldown, 0) ms.
 * Internally synchronized, so failures reported from many threads
 * trip exactly once per threshold of them.
 */
class CrashLoopBreaker
{
  public:
    CrashLoopBreaker(std::string key, int threshold, int cooldown_ms)
        : key_(std::move(key)), threshold_(threshold),
          cooldownMs_(cooldown_ms)
    {
    }

    /** Count a failure; the cooldown in ms when it trips, else 0. */
    int failure();
    /** A success ends the run of failures. */
    void success();

  private:
    const std::string key_;
    const int threshold_;
    const int cooldownMs_;
    std::mutex mutex_;
    int run_ = 0;
    uint64_t trips_ = 0;  ///< indexes the cooldown's jitter
};

} // namespace csched

#endif // CSCHED_SUPPORT_BACKOFF_HH
