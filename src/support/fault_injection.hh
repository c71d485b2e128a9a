/**
 * @file
 * Deterministic fault injection: the mechanism that proves the
 * runner's recovery paths (isolation, retry, timeout, salvage)
 * actually work.
 *
 * The library is instrumented with *named fault points* --
 * checkpoint() calls at interesting boundaries such as
 * "runner.job.start", "checker.verify", "pass.apply", "pcc.descent",
 * "uas.cycle", "rawcc.merge", and "machine.degrade" (hit exactly
 * once when an online mid-run degradation event fires, so tile loss
 * is deterministically injectable).  A FaultPlan (parsed from a test or
 * from the hidden --inject driver option) arms rules against those
 * points; a FaultScope binds the plan to one job's execution with a
 * scope key (e.g. "fir/vliw4/uas") and per-point hit counters.
 *
 * Determinism: a rule's decision to fire depends only on (seed, point,
 * scope key, hit index) -- never on wall-clock, thread identity, or
 * global state -- so an injected grid produces byte-identical reports
 * at any --jobs value.  Hit counters live in the scope (one per job)
 * and persist across retry attempts, which is how "fail on the first
 * hit only" rules model transient faults that a retry heals.
 *
 * Rule spec grammar (rules separated by ';'):
 *
 *   point=action[:opt=value]...
 *
 *   action: fail     throw an error (default code "injected")
 *           timeout  throw a timeout (simulates an expired deadline)
 *           slow     sleep ms milliseconds, then continue
 *   opts:   match=S  only in scopes whose key contains substring S
 *           nth=N    only on the Nth hit of the point (1-based)
 *           prob=P   fire with probability P (deterministic, seeded)
 *           seed=S   seed for prob draws (default 0)
 *           ms=N     sleep length for slow (default 100)
 *           code=C   error code for fail: injected|check-failed|
 *                    invalid-spec|internal
 *
 * Example: "runner.job.start=fail:match=uas:nth=1;pass.apply=slow:ms=5"
 */

#ifndef CSCHED_SUPPORT_FAULT_INJECTION_HH
#define CSCHED_SUPPORT_FAULT_INJECTION_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/status.hh"

namespace csched {

/** What an armed rule does when it fires. */
enum class FaultAction { Fail, Timeout, Slow };

/** One armed rule of a fault plan. */
struct FaultRule
{
    std::string point;  ///< exact fault-point name this rule watches
    FaultAction action = FaultAction::Fail;
    /** Error code thrown by Fail (Injected unless overridden). */
    ErrorCode code = ErrorCode::Injected;
    /** Scope-key substring filter; empty matches every scope. */
    std::string match;
    /** Fire only on this hit index (1-based); 0 = every hit. */
    int nth = 0;
    /** Firing probability per hit; draws are seeded and per-hit. */
    double probability = 1.0;
    /** Seed for probability draws. */
    uint64_t seed = 0;
    /** Sleep length for Slow, in milliseconds. */
    int slowMs = 100;
};

/** An immutable set of rules, shareable across jobs and threads. */
class FaultPlan
{
  public:
    /** Parse the ';'-separated rule spec; nullopt + error when bad. */
    static std::optional<FaultPlan> parse(const std::string &text,
                                          std::string *error = nullptr);

    /**
     * The plan back in rule-spec text form (round-trips through
     * parse()).  This is how an armed plan crosses the process
     * boundary to an isolated worker (runner/worker.hh).
     */
    std::string text() const;

    void add(FaultRule rule) { rules_.push_back(std::move(rule)); }

    bool empty() const { return rules_.empty(); }
    const std::vector<FaultRule> &rules() const { return rules_; }

  private:
    std::vector<FaultRule> rules_;
};

/**
 * One job's view of a plan: the scope key plus per-point hit counters.
 * Not thread-safe -- a scope belongs to the single thread running its
 * job.  A null plan makes every hit a no-op.
 */
class FaultScope
{
  public:
    FaultScope(const FaultPlan *plan, std::string key);

    /**
     * Record a hit of @p point and apply every matching rule: Slow
     * sleeps, Fail/Timeout throw StatusError.
     */
    void hit(const std::string &point);

    const std::string &key() const { return key_; }

  private:
    const FaultPlan *plan_;
    std::string key_;
    std::map<std::string, int> hits_;
};

/** Binds @p scope to the current thread for the scope's lifetime. */
class ScopedFaultScope
{
  public:
    explicit ScopedFaultScope(FaultScope *scope);
    ~ScopedFaultScope();

    ScopedFaultScope(const ScopedFaultScope &) = delete;
    ScopedFaultScope &operator=(const ScopedFaultScope &) = delete;

  private:
    FaultScope *previous_;
};

/** Hit @p point on the current thread's scope; no-op without one. */
void faultPoint(const char *point);

/**
 * The standard instrumentation call: hit the fault point, then poll
 * cancellation.  This is what scheduler loops call at their
 * boundaries.
 */
void checkpoint(const char *point);

} // namespace csched

#endif // CSCHED_SUPPORT_FAULT_INJECTION_HH
