/**
 * @file
 * Structured error model for everything reachable from grid-job
 * execution.
 *
 * The failure policy of the library is three-tiered:
 *
 *  - Status / StatusOr<T>: recoverable failures (bad specs, checker
 *    rejections, deadlines, injected faults) travel as values to the
 *    job boundary, where the runner records them as per-job outcomes
 *    instead of killing the whole grid.
 *  - StatusError: the exception form of a Status, used only for
 *    cooperative unwinding out of deep scheduler loops (deadline
 *    cancellation, armed fault points); always caught at the job
 *    boundary in runJob.
 *  - CSCHED_PANIC / CSCHED_ASSERT (logging.hh): true library-invariant
 *    bugs; still abort the process so a debugger can capture state.
 */

#ifndef CSCHED_SUPPORT_STATUS_HH
#define CSCHED_SUPPORT_STATUS_HH

#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "support/logging.hh"

namespace csched {

/** Machine-readable classification of a failure. */
enum class ErrorCode {
    Ok,           ///< no error
    InvalidSpec,  ///< unknown/malformed workload, machine, or algorithm
    CheckFailed,  ///< the checker rejected a produced schedule
    Timeout,      ///< a deadline expired (cooperative cancellation)
    Injected,     ///< forced by the fault-injection harness
    Internal,     ///< a library expectation failed at the job boundary
    Interrupted,  ///< aborted by a shutdown request (SIGINT/SIGTERM)
    /**
     * An isolated worker process died (signal, nonzero exit, OOM
     * kill, or a garbled pipe frame) instead of reporting a result.
     * Only produced under --isolate (runner/worker.hh).
     */
    WorkerCrashed,
    /** The parent watchdog killed a worker stuck past its deadline. */
    WorkerKilled,
    /**
     * The serve daemon refused admission: its bounded request queue
     * was full or the worker pool was crash-looping.  Backpressure,
     * not a verdict about the request -- the client should retry
     * later (see serve/server.hh).
     */
    Overloaded,
    /**
     * Every remote worker host was lost (dead, partitioned, or
     * quarantined) before the job could complete.  Only produced
     * under --hosts (dist/remote_pool.hh), and only after the lease
     * layer ran out of healthy hosts to reassign to -- a single host
     * death never surfaces this code, it just moves the lease.
     */
    HostLost,
};

/** Stable lower-case name, e.g. "check-failed" (used in JSON). */
const char *errorCodeName(ErrorCode code);

/**
 * Inverse of errorCodeName over the non-Ok codes, used by the fault
 * harness (`code=` rule options) and the journal loader.  Returns
 * nullopt for unknown names.
 */
std::optional<ErrorCode> parseErrorCodeName(const std::string &name);

/** An error code plus a human-readable message; default is success. */
class Status
{
  public:
    /** Success. */
    Status() = default;

    /** An error of @p code; @p code must not be Ok. */
    static Status error(ErrorCode code, std::string message);

    static Status invalidSpec(std::string message);
    static Status checkFailed(std::string message);
    static Status timedOut(std::string message);
    static Status internal(std::string message);
    static Status interrupted(std::string message);
    static Status workerCrashed(std::string message);
    static Status overloaded(std::string message);
    static Status hostLost(std::string message);

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Same status with "@p context: " prefixed to the message. */
    Status withContext(const std::string &context) const;

    /** "check-failed: <message>", or "ok". */
    std::string toString() const;

  private:
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * Exception wrapper for a Status: thrown by cancellation polls and
 * armed fault points inside scheduler loops, caught (only) at the job
 * boundary and converted back into a per-job Status.
 */
struct StatusError
{
    explicit StatusError(Status status) : status(std::move(status))
    {
        CSCHED_ASSERT(!this->status.ok(),
                      "StatusError must carry an error");
    }

    Status status;
};

/** A T or the Status explaining why there is no T. */
template <typename T>
class StatusOr
{
  public:
    /** From an error; @p status must not be ok. */
    StatusOr(Status status) : status_(std::move(status))
    {
        CSCHED_ASSERT(!status_.ok(),
                      "StatusOr built from an ok Status needs a value");
    }

    /**
     * From a value (or anything convertible to one, e.g. a
     * unique_ptr<Derived> for a StatusOr<unique_ptr<Base>>).
     */
    template <typename U = T,
              typename = std::enable_if_t<
                  std::is_convertible_v<U &&, T> &&
                  !std::is_same_v<std::decay_t<U>, Status> &&
                  !std::is_same_v<std::decay_t<U>, StatusOr<T>>>>
    StatusOr(U &&value) : value_(std::in_place, std::forward<U>(value))
    {
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    T &
    value()
    {
        CSCHED_ASSERT(ok(), "value() on an error StatusOr: ",
                      status_.toString());
        return *value_;
    }

    const T &
    value() const
    {
        CSCHED_ASSERT(ok(), "value() on an error StatusOr: ",
                      status_.toString());
        return *value_;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;  ///< Ok exactly when value_ holds a value
    std::optional<T> value_;
};

} // namespace csched

#endif // CSCHED_SUPPORT_STATUS_HH
