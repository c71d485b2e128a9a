/**
 * @file
 * Cooperative cancellation for long-running scheduler loops.
 *
 * A CancelToken is armed with a deadline by the job runner; the
 * schedulers poll it at natural loop boundaries -- convergent pass
 * applications, PCC descent moves, UAS cycles, Rawcc merges -- via
 * pollCancellation(), which throws a StatusError(Timeout) that the job
 * boundary converts into a `timeout` job outcome.  Polling is
 * push-free and lock-free: a token is bound to the executing thread
 * through a thread-local pointer, so deep scheduler code needs no
 * plumbing, and code running outside a job (tests, the single-run CLI
 * path) polls against no token at all, which is a no-op.
 */

#ifndef CSCHED_SUPPORT_CANCEL_HH
#define CSCHED_SUPPORT_CANCEL_HH

#include <chrono>

namespace csched {

/** A wall-clock deadline a job's scheduler polls. */
class CancelToken
{
  public:
    CancelToken() = default;

    /** Arm a wall-clock deadline @p ms milliseconds from now. */
    void armDeadline(int ms);

    /** True once past the armed deadline. */
    bool expired() const;

    /** The armed deadline in ms; 0 when none (for diagnostics). */
    int deadlineMs() const { return deadline_ms_; }

  private:
    bool has_deadline_ = false;
    int deadline_ms_ = 0;
    std::chrono::steady_clock::time_point deadline_;
};

/** Binds @p token to the current thread for the scope's lifetime. */
class ScopedCancelToken
{
  public:
    explicit ScopedCancelToken(CancelToken *token);
    ~ScopedCancelToken();

    ScopedCancelToken(const ScopedCancelToken &) = delete;
    ScopedCancelToken &operator=(const ScopedCancelToken &) = delete;

  private:
    CancelToken *previous_;
};

/**
 * The root of the cancellation tree: a process-wide flag sitting above
 * every per-job CancelToken.  The signal handlers of a graceful
 * shutdown (see runner/shutdown.hh) arm it, and every cancellation
 * poll consults it before the thread's own token -- so one request
 * drains every in-flight job cooperatively, no matter which worker it
 * runs on.  Async-signal-safe: a lock-free atomic store.
 */
void requestGlobalCancel();

/** True once requestGlobalCancel() was called (and not reset). */
bool globalCancelRequested();

/** Reset the root flag (tests and resumed driver runs only). */
void resetGlobalCancel();

/**
 * Throw when the current thread's job should stop: a
 * StatusError(Interrupted) when the global root is armed, else a
 * StatusError(Timeout) when the thread's token (if any) has expired.
 * @p where names the poll site for the diagnostic.
 */
void pollCancellation(const char *where);

} // namespace csched

#endif // CSCHED_SUPPORT_CANCEL_HH
