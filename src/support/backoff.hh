/**
 * @file
 * The one jittered-backoff recipe.  Grid retries, dist reconnects,
 * dist quarantine windows and serve's degraded window all draw their
 * delays here, each with its own key prefix and constants.
 *
 * A delay is a pure function of its arguments -- never of wall clock
 * or thread identity -- so delays recorded in diagnostics are
 * byte-identical at any --jobs value, and anyone can recompute them.
 */

#ifndef CSCHED_SUPPORT_BACKOFF_HH
#define CSCHED_SUPPORT_BACKOFF_HH

#include <cstdint>
#include <string>

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

} // namespace csched

#endif // CSCHED_SUPPORT_BACKOFF_HH
