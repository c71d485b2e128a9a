#include "runner/shutdown.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "support/cancel.hh"

namespace csched {

namespace {

// Async-signal-safety audit (everything reachable from the handler):
// the handler may run on a thread that holds *any* lock -- including
// the logging mutex mid-fprintf -- so it must only touch lock-free
// atomics and functions the POSIX list blesses.  It therefore does
// exactly four things: a lock-free CAS on the signal slot, a
// lock-free load of the drain-style flag, a lock-free store on the
// global-cancel flag (support/cancel.cc), and -- on a *second* drain
// signal -- a std::signal() restore plus raise() (both
// async-signal-safe per POSIX).  No logging, no allocation, no
// mutexes; the regression test in tests/journal_test.cc raises
// SIGTERM while the logging mutex is held to keep it that way.
std::atomic<int> g_interrupt_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the signal handler needs a lock-free interrupt flag");

// Serve-style soft drain: the first signal records the drain request
// but leaves global cancellation to escalateInterrupt() (the serve
// drain deadline).  Grid style (the default) cancels immediately.
std::atomic<bool> g_soft_drain{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the signal handler needs a lock-free style flag");

extern "C" void
gridSignalHandler(int signum)
{
    int expected = 0;
    if (!g_interrupt_signal.compare_exchange_strong(expected, signum)) {
        // Second drain signal (same or different): escalate to an
        // immediate death instead of re-arming the drain.  Restoring
        // the default disposition and re-raising lets the kernel
        // deliver the pending signal the moment the handler returns,
        // so the process dies by the real signal (correct wait status
        // for the parent, conventional 128+signum for the shell).
        std::signal(signum, SIG_DFL);
        ::raise(signum);
        return;
    }
    if (!g_soft_drain.load())
        requestGlobalCancel();
}

void
installDrainHandlers()
{
    std::signal(SIGINT, gridSignalHandler);
    std::signal(SIGTERM, gridSignalHandler);
    std::signal(SIGHUP, gridSignalHandler);
}

} // namespace

void
installGridSignalHandlers()
{
    g_soft_drain.store(false);
    installDrainHandlers();
}

void
installServeSignalHandlers()
{
    g_soft_drain.store(true);
    installDrainHandlers();
}

void
requestInterrupt(int signum)
{
    int expected = 0;
    g_interrupt_signal.compare_exchange_strong(expected, signum);
    if (!g_soft_drain.load())
        requestGlobalCancel();
}

void
escalateInterrupt()
{
    requestGlobalCancel();
}

int
interruptSignal()
{
    return g_interrupt_signal.load();
}

bool
interruptRequested()
{
    // In serve style a recorded-but-unescalated drain must *not* read
    // as "abort in-flight work"; only the cancellation root, armed by
    // escalateInterrupt(), does.  In grid style the signal and the
    // root arm together, so either half reads the same.
    return globalCancelRequested() ||
           (!g_soft_drain.load() && g_interrupt_signal.load() != 0);
}

bool
drainRequested()
{
    return g_interrupt_signal.load() != 0 || globalCancelRequested();
}

void
clearInterrupt()
{
    g_interrupt_signal.store(0);
    resetGlobalCancel();
}

int
interruptExitCode(int signum)
{
    return 128 + (signum > 0 ? signum : SIGINT);
}

void
sleepUnlessInterrupted(int ms)
{
    using Clock = std::chrono::steady_clock;
    const auto until = Clock::now() + std::chrono::milliseconds(ms);
    while (!interruptRequested()) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                until - Clock::now())
                .count();
        if (left <= 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<long long>(10, left)));
    }
}

} // namespace csched
