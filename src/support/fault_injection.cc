#include "support/fault_injection.hh"

#include <chrono>
#include <cstdio>
#include <thread>

#include "support/cancel.hh"
#include "support/rng.hh"
#include "support/str.hh"

namespace csched {

namespace {

thread_local FaultScope *t_current_scope = nullptr;

/**
 * Deterministic per-hit draw in [0, 1): a function of the rule seed,
 * the point, the scope key, and the hit index only.
 */
double
hitDraw(const FaultRule &rule, const std::string &key, int index)
{
    const uint64_t mixed = rule.seed ^ (fnv1aHash(rule.point) * 3) ^
                           (fnv1aHash(key) * 5) ^
                           (static_cast<uint64_t>(index) * 0x9e3779b9ULL);
    return Rng(mixed).uniform();
}

} // namespace

std::optional<FaultPlan>
FaultPlan::parse(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &why) -> std::optional<FaultPlan> {
        if (error != nullptr)
            *error = why;
        return std::nullopt;
    };

    FaultPlan plan;
    for (const auto &rule_text : split(text, ';')) {
        const std::string trimmed = trim(rule_text);
        if (trimmed.empty())
            continue;
        const auto eq = trimmed.find('=');
        if (eq == std::string::npos)
            return fail("fault rule '" + trimmed +
                        "' has no '=': expected point=action[:opt=val]");

        FaultRule rule;
        rule.point = trim(trimmed.substr(0, eq));
        if (rule.point.empty())
            return fail("fault rule '" + trimmed + "' names no point");

        const auto parts = split(trimmed.substr(eq + 1), ':');
        const std::string action = trim(parts[0]);
        if (action == "fail") {
            rule.action = FaultAction::Fail;
        } else if (action == "timeout") {
            rule.action = FaultAction::Timeout;
        } else if (action == "slow") {
            rule.action = FaultAction::Slow;
        } else {
            return fail("unknown fault action '" + action +
                        "' (expected fail|timeout|slow)");
        }

        for (size_t k = 1; k < parts.size(); ++k) {
            const std::string opt = trim(parts[k]);
            const auto opt_eq = opt.find('=');
            if (opt_eq == std::string::npos)
                return fail("fault option '" + opt +
                            "' has no '=': expected opt=value");
            const std::string name = trim(opt.substr(0, opt_eq));
            const std::string value = trim(opt.substr(opt_eq + 1));
            try {
                if (name == "match") {
                    rule.match = value;
                } else if (name == "nth") {
                    rule.nth = std::stoi(value);
                    if (rule.nth < 1)
                        return fail("nth must be >= 1, got " + value);
                } else if (name == "prob") {
                    rule.probability = std::stod(value);
                    if (rule.probability < 0.0 || rule.probability > 1.0)
                        return fail("prob must be in [0, 1], got " +
                                    value);
                } else if (name == "seed") {
                    rule.seed = std::stoull(value);
                } else if (name == "ms") {
                    rule.slowMs = std::stoi(value);
                    if (rule.slowMs < 0)
                        return fail("ms must be >= 0, got " + value);
                } else if (name == "code") {
                    const auto code = parseErrorCodeName(value);
                    if (!code.has_value())
                        return fail("unknown error code '" + value + "'");
                    rule.code = *code;
                } else {
                    return fail("unknown fault option '" + name + "'");
                }
            } catch (...) {
                return fail("malformed value in fault option '" + opt +
                            "'");
            }
        }
        plan.add(std::move(rule));
    }
    return plan;
}

std::string
FaultPlan::text() const
{
    std::string out;
    for (const auto &rule : rules_) {
        if (!out.empty())
            out += ";";
        out += rule.point + "=";
        switch (rule.action) {
          case FaultAction::Fail:
            out += "fail";
            break;
          case FaultAction::Timeout:
            out += "timeout";
            break;
          case FaultAction::Slow:
            out += "slow";
            break;
        }
        if (rule.code != ErrorCode::Injected)
            out += std::string(":code=") + errorCodeName(rule.code);
        if (!rule.match.empty())
            out += ":match=" + rule.match;
        if (rule.nth > 0)
            out += ":nth=" + std::to_string(rule.nth);
        if (rule.probability < 1.0) {
            char buffer[48];
            std::snprintf(buffer, sizeof(buffer), "%.17g",
                          rule.probability);
            out += std::string(":prob=") + buffer;
        }
        if (rule.seed != 0)
            out += ":seed=" + std::to_string(rule.seed);
        if (rule.slowMs != 100)
            out += ":ms=" + std::to_string(rule.slowMs);
    }
    return out;
}

FaultScope::FaultScope(const FaultPlan *plan, std::string key)
    : plan_(plan), key_(std::move(key))
{
}

void
FaultScope::hit(const std::string &point)
{
    if (plan_ == nullptr || plan_->empty())
        return;
    const int index = ++hits_[point];
    for (const auto &rule : plan_->rules()) {
        if (rule.point != point)
            continue;
        if (!rule.match.empty() &&
            key_.find(rule.match) == std::string::npos)
            continue;
        if (rule.nth > 0 && index != rule.nth)
            continue;
        if (rule.probability < 1.0 &&
            hitDraw(rule, key_, index) >= rule.probability)
            continue;
        switch (rule.action) {
          case FaultAction::Slow:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(rule.slowMs));
            continue;  // a slowdown is not a failure
          case FaultAction::Timeout:
            throw StatusError(
                Status::timedOut("injected timeout at " + point));
          case FaultAction::Fail:
            throw StatusError(Status::error(
                rule.code, std::string("injected fault (") +
                               errorCodeName(rule.code) + ") at " +
                               point));
        }
    }
}

ScopedFaultScope::ScopedFaultScope(FaultScope *scope)
    : previous_(t_current_scope)
{
    t_current_scope = scope;
}

ScopedFaultScope::~ScopedFaultScope()
{
    t_current_scope = previous_;
}

void
faultPoint(const char *point)
{
    if (t_current_scope != nullptr)
        t_current_scope->hit(point);
}

void
checkpoint(const char *point)
{
    faultPoint(point);
    pollCancellation(point);
}

} // namespace csched
