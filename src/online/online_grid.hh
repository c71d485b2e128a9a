/**
 * @file
 * Online sweeps on the offline grid substrate.
 *
 * An online experiment cell is (stream x machine x policy).  Instead
 * of a parallel runner, streams ride the grid's *workload* axis
 * (stream specs are workload-shaped strings, see arrival.hh) and
 * policies ride its *algorithm* axis (policy specs parse through
 * parseAlgorithmSpec) -- so an online sweep is a plain GridSpec run by
 * runGrid (speedup off: the one-cluster normalisation is an offline
 * concept), and every grid contract carries over unchanged: journal
 * + resume, --isolate worker containment (specs cross the worker
 * pipe in text form), fault injection, retries/deadlines, and
 * byte-identical csched-grid-report-v2 output at any --jobs value.
 *
 * The split of responsibilities: grid_runner routes any job whose
 * workload is a stream (or whose algorithm is an online policy) to
 * runOnlineJobAttempt below, which parses both sides, generates the
 * arrivals, runs the commit loop, and scores the timeline into the
 * JobResult's online fields.  A stream workload with an offline
 * algorithm (or vice versa) is an InvalidSpec job outcome, not a
 * grid error.
 */

#ifndef CSCHED_ONLINE_ONLINE_GRID_HH
#define CSCHED_ONLINE_ONLINE_GRID_HH

#include "runner/grid_runner.hh"

namespace csched {

/** True when @p spec is an online cell (stream and/or policy side). */
bool isOnlineJobSpec(const JobSpec &spec);

/**
 * One attempt of one online job: parse stream + policy, generate the
 * arrivals, run the commit loop, verify every region plan, score the
 * timeline.  Measurement fields of @p out are written only on the
 * success path (mirrors the offline runJobAttempt contract; called
 * from inside its try block so StatusError unwinds identically).
 */
Status runOnlineJobAttempt(const JobSpec &spec, JobResult &out);

} // namespace csched

#endif // CSCHED_ONLINE_ONLINE_GRID_HH
