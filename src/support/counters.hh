/**
 * @file
 * A daemon's counters, declared once.  Each daemon lists its counters
 * as an X-macro, `#define CSCHED_<DAEMON>_COUNTERS(X) X(name) ...`,
 * and expands that one list three times with the macros below: the
 * fields of its public snapshot struct, the fields of its private
 * atomic twin, and the body of its stats().  Adding a counter is a
 * one-line edit to the list.
 */

#ifndef CSCHED_SUPPORT_COUNTERS_HH
#define CSCHED_SUPPORT_COUNTERS_HH

#include <atomic>
#include <cstdint>

/** A snapshot field. */
#define CSCHED_COUNTER_FIELD(name) uint64_t name = 0;
/** An atomic-twin field, bumped with fetch_add. */
#define CSCHED_COUNTER_ATOMIC(name) std::atomic<uint64_t> name{0};
/** One line of stats(): copies atomic twin `counters_` into `out`. */
#define CSCHED_COUNTER_LOAD(name) out.name = counters_.name.load();

#endif // CSCHED_SUPPORT_COUNTERS_HH
