/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  -- an internal invariant was violated (a bug in this library);
 *             aborts so a debugger or core dump can capture the state.
 * fatal()  -- the caller supplied an impossible configuration or input;
 *             exits with status 1.
 * warn()   -- something is suspicious but execution can continue.
 */

#ifndef CSCHED_SUPPORT_LOGGING_HH
#define CSCHED_SUPPORT_LOGGING_HH

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>

namespace csched {

/** Severity of a log message; selects the prefix and the exit behaviour. */
enum class LogLevel { Warn, Fatal, Panic };

/**
 * Emit a message to stderr and, for Fatal/Panic, terminate the process.
 *
 * @param level severity; Fatal calls exit(1), Panic calls abort().
 * @param file  source file of the call site.
 * @param line  source line of the call site.
 * @param msg   already-formatted message body.
 */
[[noreturn]] void logAndDie(LogLevel level, const char *file, int line,
                            const std::string &msg);

/** Emit a non-fatal warning to stderr. */
void logWarn(const char *file, int line, const std::string &msg);

/**
 * Thread-local context prepended to every log line emitted from this
 * thread, e.g. "job fir/vliw4/uas".  The grid runner installs one per
 * job so a warn/fatal/panic from a worker names the job it came from.
 * Scopes nest; destruction restores the previous context.
 */
class ScopedLogContext
{
  public:
    explicit ScopedLogContext(std::string context);
    ~ScopedLogContext();

    ScopedLogContext(const ScopedLogContext &) = delete;
    ScopedLogContext &operator=(const ScopedLogContext &) = delete;

  private:
    std::string previous_;
};

/**
 * Register a pthread_atfork hook that holds the logging mutex across
 * fork(), so a child forked from a multi-threaded parent (worker
 * respawns, see runner/worker.hh) never inherits the mutex locked by
 * some other thread mid-message.  Idempotent; cheap to call again.
 */
void installLogForkGuard();

/**
 * The logging mutex itself, exposed so tests can hold it while
 * raising a signal -- proving the shutdown handlers never take it
 * (see runner/shutdown.cc).  Not for production use.
 */
std::mutex &logMutexForTesting();

namespace detail {

/** Concatenate a mixed argument pack into one string via a stream. */
template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace csched

/** Abort with a message: an internal invariant was violated. */
#define CSCHED_PANIC(...)                                                   \
    ::csched::logAndDie(::csched::LogLevel::Panic, __FILE__, __LINE__,      \
                        ::csched::detail::formatParts(__VA_ARGS__))

/** Exit(1) with a message: the user supplied an impossible input. */
#define CSCHED_FATAL(...)                                                   \
    ::csched::logAndDie(::csched::LogLevel::Fatal, __FILE__, __LINE__,      \
                        ::csched::detail::formatParts(__VA_ARGS__))

/** Print a warning and keep going. */
#define CSCHED_WARN(...)                                                    \
    ::csched::logWarn(__FILE__, __LINE__,                                   \
                      ::csched::detail::formatParts(__VA_ARGS__))

/** Panic when @p cond is false; use for internal invariants. */
#define CSCHED_ASSERT(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            CSCHED_PANIC("assertion failed: " #cond " ",                    \
                         ::csched::detail::formatParts(__VA_ARGS__));       \
        }                                                                   \
    } while (0)

#endif // CSCHED_SUPPORT_LOGGING_HH
