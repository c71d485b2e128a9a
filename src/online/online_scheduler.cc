#include "online/online_scheduler.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "eval/experiment.hh"
#include "support/cancel.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"
#include "workloads/workloads.hh"

namespace csched {

namespace {

/**
 * The machine's committed timeline: an ordered sequence of exclusive
 * occupations plus the snapshot/rollback support preemption needs.
 * Commits must arrive in nondecreasing start order with
 * start >= freeAt() (the driver enforces back-to-back packing).
 */
class Timeline
{
  public:
    /** First cycle the machine is idle after every commit. */
    int freeAt() const
    {
        return commits_.empty() ? 0 : commits_.back().end();
    }

    /** Append an irrevocable commit; start must be >= freeAt(). */
    void
    commit(OnlineCommit commit)
    {
        CSCHED_ASSERT(commit.start >= freeAt(),
                      "online commit overlaps the timeline: start ",
                      commit.start, " < freeAt ", freeAt());
        CSCHED_ASSERT(commit.makespan >= 0, "negative commit makespan");
        commits_.push_back(std::move(commit));
    }

    const std::vector<OnlineCommit> &commits() const { return commits_; }

    /** Consume the timeline (driver teardown). */
    std::vector<OnlineCommit> takeCommits() { return std::move(commits_); }

    /**
     * Preemption: pop every commit that has not started by @p time
     * (start > time), newest first, and return them oldest-first so
     * the caller can recommit.  Started commits are untouchable.
     */
    std::vector<OnlineCommit>
    rollbackAfter(int time)
    {
        std::vector<OnlineCommit> rolled;
        while (!commits_.empty() && commits_.back().start > time) {
            rolled.push_back(std::move(commits_.back()));
            commits_.pop_back();
        }
        std::reverse(rolled.begin(), rolled.end());
        return rolled;
    }

  private:
    std::vector<OnlineCommit> commits_;
};

/** A released region whose placement has been planned but not
 *  committed (or whose commit was rolled back). */
struct PendingRegion
{
    RegionArrival arrival;
    int criticalPathLength = 0;
    int instructions = 0;
    int makespan = 0;
    bool fallback = false;
    std::optional<Schedule> schedule;
};

/** Strict weak order implementing the policy's pending-window rule;
 *  every rule breaks ties by (release, id) for determinism. */
bool
orderedBefore(const PendingRegion &a, const PendingRegion &b,
              OnlineOrder order)
{
    switch (order) {
    case OnlineOrder::Fifo:
        break;
    case OnlineOrder::Wspt: {
        // a before b iff a.weight / a.makespan > b.weight / b.makespan,
        // cross-multiplied to stay in exact integer arithmetic.
        const int64_t lhs = static_cast<int64_t>(a.arrival.weight) *
                            std::max(1, b.makespan);
        const int64_t rhs = static_cast<int64_t>(b.arrival.weight) *
                            std::max(1, a.makespan);
        if (lhs != rhs)
            return lhs > rhs;
        break;
    }
    case OnlineOrder::LongestCpl:
        if (a.criticalPathLength != b.criticalPathLength)
            return a.criticalPathLength > b.criticalPathLength;
        break;
    }
    if (a.arrival.release != b.arrival.release)
        return a.arrival.release < b.arrival.release;
    return a.arrival.id < b.arrival.id;
}

OnlineCommit
makeCommit(PendingRegion &&region, int start)
{
    return OnlineCommit{region.arrival.id,
                        std::move(region.arrival.workload),
                        region.arrival.release,
                        region.arrival.weight,
                        region.arrival.deadline,
                        start,
                        region.makespan,
                        region.instructions,
                        region.criticalPathLength,
                        region.fallback,
                        std::move(*region.schedule)};
}

PendingRegion
reopenCommit(OnlineCommit &&commit)
{
    PendingRegion region;
    region.arrival = RegionArrival{commit.regionId,
                                   std::move(commit.workload),
                                   commit.release, commit.weight,
                                   commit.deadline};
    region.criticalPathLength = commit.criticalPathLength;
    region.instructions = commit.instructions;
    region.makespan = commit.makespan;
    region.fallback = commit.fallback;
    region.schedule = std::move(commit.schedule);
    return region;
}

/** Shared state of one runOnline invocation. */
class OnlineDriver
{
  public:
    OnlineDriver(const MachineModel &machine,
                 const OnlinePolicySpec &policy,
                 const std::vector<RegionArrival> &arrivals,
                 const MachineModel *degraded)
        : policy_(policy), arrivals_(arrivals),
          degraded_(degraded), active_(&machine)
    {
    }

    StatusOr<OnlineRunResult>
    run()
    {
        if (policy_.degradeAt >= 0 && degraded_ == nullptr)
            return Status::invalidSpec(
                "policy '" + policy_.text +
                "' arms degrade-at but no degraded machine was "
                "provided");
        Status valid = validateArrivals();
        if (!valid.ok())
            return valid;
        Status loop = policy_.planAhead ? runPlanAhead() : runLazy();
        if (!loop.ok())
            return loop;
        OnlineRunResult result;
        result.commits = timeline_.takeCommits();
        result.preemptions = preemptions_;
        result.fallbackDecisions = fallbacks_;
        result.degradeFired = degradeFired_;
        result.degradeReplans = degradeReplans_;
        return result;
    }

  private:
    Status
    validateArrivals()
    {
        for (size_t i = 0; i < arrivals_.size(); ++i) {
            if (arrivals_[i].id != static_cast<int>(i))
                return Status::invalidSpec(
                    "arrival ids must be dense and ordered");
            if (arrivals_[i].release < 0 || arrivals_[i].weight < 1)
                return Status::invalidSpec(
                    "arrival with negative release or weight < 1");
            if (i > 0 &&
                arrivals_[i].release < arrivals_[i - 1].release)
                return Status::invalidSpec(
                    "arrival releases must be nondecreasing");
        }
        return Status();
    }

    /** Plan one region with @p name under the per-decision budget. */
    StatusOr<RunResult>
    planWith(const std::string &name, const DependenceGraph &graph)
    {
        AlgorithmSpec spec;
        spec.name = name;
        auto algorithm = tryMakeAlgorithm(spec, *active_);
        if (!algorithm.ok())
            return algorithm.status();
        if (policy_.decisionBudgetMs <= 0)
            return tryRunAndCheck(**algorithm, graph, *active_);
        CancelToken budget;
        budget.armDeadline(policy_.decisionBudgetMs);
        ScopedCancelToken scope(&budget);
        try {
            return tryRunAndCheck(**algorithm, graph, *active_);
        } catch (const StatusError &e) {
            // A drain request must keep unwinding to the job
            // boundary; only this decision's own deadline is ours.
            if (e.status.code() != ErrorCode::Timeout)
                throw;
            return e.status;
        }
    }

    /**
     * (Re)plan @p region's placement on the active machine: rebuild
     * its workload graph, re-home preplacements onto the alive
     * clusters, and run the policy's underlying algorithm (with the
     * budgeted UAS fallback).
     */
    Status
    planRegion(PendingRegion &region)
    {
        const WorkloadSpec *workload =
            tryFindWorkload(region.arrival.workload);
        if (workload == nullptr)
            return Status::invalidSpec("stream names unknown workload '" +
                                       region.arrival.workload + "'");
        DependenceGraph graph = workload->build(
            active_->numClusters(), active_->numClusters());
        remapPreplacedForMachine(graph, *active_);
        region.criticalPathLength = graph.criticalPathLength();
        auto planned = planWith(policy_.underlying, graph);
        if (!planned.ok() &&
            planned.status().code() == ErrorCode::Timeout &&
            policy_.decisionBudgetMs > 0 && policy_.underlying != "uas") {
            region.fallback = true;
            ++fallbacks_;
            planned = planWith("uas", graph);
        }
        if (!planned.ok())
            return planned.status().withContext(
                "online planning of region " +
                std::to_string(region.arrival.id) + " (" +
                region.arrival.workload + ")");
        region.instructions = planned->instructions;
        region.makespan = planned->makespan;
        region.schedule = std::move(planned->result.schedule);
        return Status();
    }

    StatusOr<PendingRegion>
    admit(const RegionArrival &arrival)
    {
        checkpoint("online.admit");
        PendingRegion region;
        region.arrival = arrival;
        Status planned = planRegion(region);
        if (!planned.ok())
            return planned;
        return region;
    }

    /** True when the degradation event is armed and has not fired. */
    bool
    degradeArmed() const
    {
        return degraded_ != nullptr && policy_.degradeAt >= 0 &&
               !degradeFired_;
    }

    /**
     * Fire the mid-run degradation: the configured tiles die at
     * degradeAt, every commit that has not started by then is rolled
     * back off the timeline, and every rolled or still-pending
     * region is re-planned on the surviving machine (their old plans
     * were made for the pre-degrade machine and may occupy dead
     * resources).  Started commits are never aborted.  The caller
     * recommits the refilled pending window.
     */
    Status
    degrade()
    {
        degradeFired_ = true;
        checkpoint("machine.degrade");
        std::vector<OnlineCommit> rolled =
            timeline_.rollbackAfter(policy_.degradeAt);
        active_ = degraded_;
        // Rolled commits re-enter the window ahead of regions that
        // were never committed, keeping each group's order stable.
        std::vector<PendingRegion> window;
        window.reserve(rolled.size() + pending_.size());
        for (OnlineCommit &commit : rolled)
            window.push_back(reopenCommit(std::move(commit)));
        for (PendingRegion &region : pending_)
            window.push_back(std::move(region));
        pending_ = std::move(window);
        for (PendingRegion &region : pending_) {
            Status planned = planRegion(region);
            if (!planned.ok())
                return planned.withContext(
                    "re-planning after the degradation event at t=" +
                    std::to_string(policy_.degradeAt));
            ++degradeReplans_;
        }
        return Status();
    }

    /** Admit every arrival with release <= @p time into pending_. */
    Status
    admitUpTo(int time)
    {
        while (next_ < arrivals_.size() &&
               arrivals_[next_].release <= time) {
            auto region = admit(arrivals_[next_]);
            if (!region.ok())
                return region.status();
            pending_.push_back(std::move(*region));
            ++next_;
        }
        return Status();
    }

    /** Smallest release among the pending regions (must be some). */
    int
    earliestRelease() const
    {
        int earliest = pending_.front().arrival.release;
        for (const PendingRegion &region : pending_)
            earliest = std::min(earliest, region.arrival.release);
        return earliest;
    }

    /** Commit the policy-order pick among the pending regions
     *  released by @p now (the caller guarantees at least one). */
    void
    commitPickAt(int now)
    {
        auto pick = pending_.end();
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->arrival.release > now)
                continue;
            if (pick == pending_.end() ||
                orderedBefore(*it, *pick, policy_.order))
                pick = it;
        }
        CSCHED_ASSERT(pick != pending_.end(),
                      "lazy decision at ", now, " with nothing released");
        timeline_.commit(makeCommit(std::move(*pick), now));
        pending_.erase(pick);
    }

    /**
     * Lazy policies: one irrevocable commit per machine-idle point,
     * chosen by the policy order among everything released by then.
     */
    Status
    runLazy()
    {
        while (next_ < arrivals_.size() || !pending_.empty()) {
            if (pending_.empty()) {
                // Idle machine: jump time to the next arrival.
                Status admitted = admitUpTo(arrivals_[next_].release);
                if (!admitted.ok())
                    return admitted;
            }
            int now = std::max(timeline_.freeAt(), earliestRelease());
            if (degradeArmed() && now >= policy_.degradeAt) {
                Status event = degrade();
                if (!event.ok())
                    return event;
                // The rollback may have freed the machine earlier;
                // the event itself pins the decision at degradeAt.
                now = std::max({timeline_.freeAt(), earliestRelease(),
                                policy_.degradeAt});
            }
            // Arrivals during the busy window compete at this decision.
            Status admitted = admitUpTo(now);
            if (!admitted.ok())
                return admitted;
            commitPickAt(now);
        }
        // The event can land inside the committed tail, after the
        // last decision point: fire it and recommit what it rolled.
        if (degradeArmed() && timeline_.freeAt() > policy_.degradeAt) {
            Status event = degrade();
            if (!event.ok())
                return event;
            while (!pending_.empty())
                commitPickAt(std::max({timeline_.freeAt(),
                                       earliestRelease(),
                                       policy_.degradeAt}));
        }
        return Status();
    }

    /** Reorder the pending window by the policy rule and commit it
     *  back-to-back, no commit before @p now or its own release. */
    void
    commitWindow(int now)
    {
        std::stable_sort(pending_.begin(), pending_.end(),
                         [&](const PendingRegion &a,
                             const PendingRegion &b) {
                             return orderedBefore(a, b, policy_.order);
                         });
        for (PendingRegion &region : pending_) {
            const int start = std::max(
                {timeline_.freeAt(), now, region.arrival.release});
            timeline_.commit(makeCommit(std::move(region), start));
        }
        pending_.clear();
    }

    /**
     * Plan-ahead policies: on every release-time batch, optionally
     * preempt unstarted commits, then reorder and commit the whole
     * pending window back-to-back.
     */
    Status
    runPlanAhead()
    {
        while (next_ < arrivals_.size()) {
            const int now = arrivals_[next_].release;
            if (degradeArmed() && now >= policy_.degradeAt) {
                Status event = degrade();
                if (!event.ok())
                    return event;
            }
            const size_t firstNew = pending_.size();
            Status admitted = admitUpTo(now);
            if (!admitted.ok())
                return admitted;
            maybePreempt(firstNew, now);
            commitWindow(now);
        }
        // The event can land inside the committed tail, after the
        // last batch: fire it and recommit what it rolled back.
        if (degradeArmed() && timeline_.freeAt() > policy_.degradeAt) {
            Status event = degrade();
            if (!event.ok())
                return event;
            commitWindow(policy_.degradeAt);
        }
        return Status();
    }

    /** Roll unstarted commits back into pending_ when the batch
     *  starting at @p firstNew brings a sufficiently heavy region. */
    void
    maybePreempt(size_t firstNew, int now)
    {
        int heaviestNew = 0;
        for (size_t i = firstNew; i < pending_.size(); ++i)
            heaviestNew =
                std::max(heaviestNew, pending_[i].arrival.weight);
        int lightestUnstarted = -1;
        for (const OnlineCommit &commit : timeline_.commits())
            if (commit.start > now)
                lightestUnstarted =
                    lightestUnstarted < 0
                        ? commit.weight
                        : std::min(lightestUnstarted, commit.weight);
        if (lightestUnstarted < 0 ||
            static_cast<double>(heaviestNew) <
                policy_.preemptFactor *
                    static_cast<double>(lightestUnstarted))
            return;
        std::vector<OnlineCommit> rolled = timeline_.rollbackAfter(now);
        preemptions_ += static_cast<int>(rolled.size());
        for (OnlineCommit &commit : rolled)
            pending_.push_back(reopenCommit(std::move(commit)));
    }

    const OnlinePolicySpec &policy_;
    const std::vector<RegionArrival> &arrivals_;
    /** Post-degrade machine; null when no event is armed. */
    const MachineModel *degraded_;
    /** The machine regions are planned on; flips to degraded_ when
     *  the degradation event fires. */
    const MachineModel *active_;
    Timeline timeline_;
    std::vector<PendingRegion> pending_;
    size_t next_ = 0;
    int preemptions_ = 0;
    int fallbacks_ = 0;
    bool degradeFired_ = false;
    int degradeReplans_ = 0;
};

} // namespace

StatusOr<OnlineRunResult>
runOnline(const MachineModel &machine, const OnlinePolicySpec &policy,
          const std::vector<RegionArrival> &arrivals,
          const MachineModel *degraded)
{
    OnlineDriver driver(machine, policy, arrivals, degraded);
    return driver.run();
}

} // namespace csched
