/**
 * @file
 * Graceful shutdown for grid runs and the serve daemon: signal
 * handlers that arm the cancellation tree (support/cancel.hh) instead
 * of killing the process mid-write.
 *
 * Three drain signals are handled -- SIGINT, SIGTERM, and SIGHUP (a
 * terminal hangup is a drain trigger like any other; daemons double
 * down on that convention).  On the *first* of them the handler
 * records the signal number and requests a drain; a *second* drain
 * signal -- same or different -- escalates to the default disposition
 * and re-raises, so a stuck drain dies immediately instead of
 * re-arming.  The recorded signal backs the conventional 128+signum
 * exit code (130 SIGINT, 143 SIGTERM, 129 SIGHUP).
 *
 * Two drain styles, chosen by the installer:
 *
 *  - Grid style (installGridSignalHandlers): the first signal also
 *    arms global cancellation, so every in-flight job aborts at its
 *    next cooperative checkpoint with an `interrupted` outcome,
 *    queued jobs are skipped, and the driver writes a partial report
 *    before exiting 128+signum.
 *
 *  - Serve style (installServeSignalHandlers): the first signal only
 *    *records* the drain request -- drainRequested() turns true while
 *    interruptRequested() stays false -- so the daemon can stop
 *    admissions and let in-flight requests run to completion up to
 *    its drain deadline, then call escalateInterrupt() to cancel the
 *    stragglers cooperatively (see serve/server.hh).
 *
 * Interrupts can also be injected deterministically through the
 * `runner.interrupt` fault point (see grid_runner.cc), which takes the
 * same requestInterrupt() path with a synthetic SIGINT -- that is what
 * keeps kill/resume tests reproducible.
 */

#ifndef CSCHED_RUNNER_SHUTDOWN_HH
#define CSCHED_RUNNER_SHUTDOWN_HH

namespace csched {

/**
 * Install the SIGINT/SIGTERM/SIGHUP handlers in grid style (first
 * signal cancels in-flight work).  Idempotent; call once from a
 * driver's main() before running a grid.
 */
void installGridSignalHandlers();

/**
 * Install the same handlers in serve style: the first signal records
 * the drain request without arming global cancellation, leaving
 * escalation to the daemon's drain deadline (escalateInterrupt()).
 */
void installServeSignalHandlers();

/**
 * Arm the drain as if @p signum had been delivered: record the signal
 * and, in grid style, arm global cancellation.  This is the handler's
 * body and the deterministic entry point used by the
 * `runner.interrupt` fault point and by tests.  Idempotent: a second
 * call keeps the first signal number.  Async-signal-safe.
 */
void requestInterrupt(int signum);

/**
 * Escalate a serve-style drain: arm global cancellation now, so
 * in-flight work that outlived the drain deadline aborts at its next
 * cooperative checkpoint.  No-op when already escalated.
 */
void escalateInterrupt();

/** Signal that interrupted the run; 0 when none arrived. */
int interruptSignal();

/**
 * True once in-flight work should *abort*: global cancellation is
 * armed (grid-style first signal, or a serve-style escalation).
 */
bool interruptRequested();

/**
 * True once a drain was requested at all -- even a serve-style soft
 * drain that has not escalated yet.  The serve accept/admission loops
 * poll this; grid code should keep polling interruptRequested().
 */
bool drainRequested();

/**
 * Forget a previous interrupt and disarm the cancellation root, so a
 * resumed run (or the next test) starts clean.  Not async-signal-safe.
 */
void clearInterrupt();

/** Conventional exit code for an interrupted run: 128 + signum. */
int interruptExitCode(int signum);

/**
 * Sleep @p ms in slices of at most 10 ms, returning early once
 * interruptRequested(), so a backoff never stalls a drain.
 */
void sleepUnlessInterrupted(int ms);

} // namespace csched

#endif // CSCHED_RUNNER_SHUTDOWN_HH
