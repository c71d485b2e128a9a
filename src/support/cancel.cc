#include "support/cancel.hh"

#include <atomic>
#include <string>

#include "support/status.hh"

namespace csched {

namespace {

thread_local CancelToken *t_current_token = nullptr;

// Reached from the shutdown signal handler (runner/shutdown.cc), so
// it must stay a lock-free atomic: no mutex, no allocation.
std::atomic<bool> g_global_cancel{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the signal handler needs a lock-free cancel flag");

} // namespace

void
requestGlobalCancel()
{
    g_global_cancel.store(true);
}

bool
globalCancelRequested()
{
    return g_global_cancel.load();
}

void
resetGlobalCancel()
{
    g_global_cancel.store(false);
}

void
CancelToken::armDeadline(int ms)
{
    has_deadline_ = true;
    deadline_ms_ = ms;
    deadline_ =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

bool
CancelToken::expired() const
{
    return has_deadline_ &&
           std::chrono::steady_clock::now() >= deadline_;
}

ScopedCancelToken::ScopedCancelToken(CancelToken *token)
    : previous_(t_current_token)
{
    t_current_token = token;
}

ScopedCancelToken::~ScopedCancelToken()
{
    t_current_token = previous_;
}

void
pollCancellation(const char *where)
{
    const CancelToken *token = t_current_token;
    if (token == nullptr)
        return;
    // The root outranks the local token: a shutdown request surfaces
    // as `interrupted` (the job re-runs on resume), never as a
    // spurious `timeout` outcome that would be journaled as terminal.
    if (globalCancelRequested())
        throw StatusError(Status::interrupted(
            std::string("interrupted at ") + where));
    if (!token->expired())
        return;
    std::string why;
    if (token->deadlineMs() > 0) {
        why = "deadline of " + std::to_string(token->deadlineMs()) +
              " ms exceeded at " + where;
    } else {
        why = std::string("cancelled at ") + where;
    }
    throw StatusError(Status::timedOut(why));
}

} // namespace csched
