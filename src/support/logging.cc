#include "support/logging.hh"

#include <cstdio>
#include <mutex>
#include <utility>

#include <pthread.h>

namespace csched {

namespace {

/** Serialises stderr writes so worker-thread messages never shear. */
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

thread_local std::string t_log_context;

void
emit(const char *prefix, const char *file, int line,
     const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    if (t_log_context.empty()) {
        std::fprintf(stderr, "%s: %s (%s:%d)\n", prefix, msg.c_str(),
                     file, line);
    } else {
        std::fprintf(stderr, "%s: [%s] %s (%s:%d)\n", prefix,
                     t_log_context.c_str(), msg.c_str(), file, line);
    }
    std::fflush(stderr);
}

} // namespace

ScopedLogContext::ScopedLogContext(std::string context)
    : previous_(std::move(t_log_context))
{
    t_log_context = std::move(context);
}

ScopedLogContext::~ScopedLogContext()
{
    t_log_context = std::move(previous_);
}

void
logAndDie(LogLevel level, const char *file, int line, const std::string &msg)
{
    const char *prefix = level == LogLevel::Panic ? "panic" : "fatal";
    emit(prefix, file, line, msg);
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

void
logWarn(const char *file, int line, const std::string &msg)
{
    emit("warn", file, line, msg);
}

namespace {

void lockLogMutex() { logMutex().lock(); }
void unlockLogMutex() { logMutex().unlock(); }

} // namespace

void
installLogForkGuard()
{
    // Acquire before fork, release in both parent and child: the
    // child's copy of the mutex is then unlocked no matter which
    // thread was emitting when the fork happened.
    static const int rc [[maybe_unused]] = ::pthread_atfork(
        lockLogMutex, unlockLogMutex, unlockLogMutex);
}

std::mutex &
logMutexForTesting()
{
    return logMutex();
}

} // namespace csched
