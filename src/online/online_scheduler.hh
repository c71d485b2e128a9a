/**
 * @file
 * The online commit loop: virtual time, a pending set, irrevocable
 * commits, and bounded preempt-and-recommit.
 *
 * Execution model.  The machine runs committed regions exclusively
 * and back-to-back: a commit occupies the whole machine for
 * [start, start + makespan) cycles, where the region's internal
 * space-time schedule (planned by the policy's underlying offline
 * algorithm and verified by the checker) plays out at cycle offsets
 * from `start`.  The driver advances virtual time, admits arrivals
 * whose release has passed into the pending set, and asks the policy
 * to pick commits:
 *
 *  - Lazy policies (online-uas/pcc/list/sp) decide one region per
 *    machine-idle point: whenever the machine frees (or the first
 *    region arrives), every arrival released by then competes, the
 *    policy order picks one, and that commit is irrevocable.
 *  - Plan-ahead policies (online-convergent) reorder the *whole*
 *    pending window on every release-time batch and commit it
 *    back-to-back in policy order.  Committed regions that have not
 *    started yet may be preempted: when a new arrival's weight is at
 *    least preemptFactor x the lightest unstarted committed weight,
 *    unstarted commits are rolled back into the pending set and
 *    recommitted together with the newcomers (started regions are
 *    never aborted).  Rollback counts are reported as `preemptions`.
 *
 * Mid-run degradation.  A policy may arm a degradation event
 * (degrade-at=T:degrade-tiles=a+b): at virtual time T the listed
 * tiles die.  The driver then switches its planning machine to the
 * degraded model, rolls every unstarted commit back off the timeline
 * (rollbackAfter(T); started commits are never aborted), and
 * re-plans every rolled or still-pending region on the surviving
 * machine before recommitting -- the online analogue of graceful
 * degradation.  The event fires at the first decision point at or
 * after T (or once the committed tail crosses T), hits the
 * "machine.degrade" fault point, and is pure virtual time, so
 * byte-identity is preserved.
 *
 * Determinism.  Planning happens once per admitted region (offline
 * algorithms are deterministic, so replanning a pinned prefix cannot
 * change it); ordering rules break ties by (release, id).  Given the
 * same stream, machine, and policy the commit sequence is
 * bit-identical -- the property the grid substrate's byte-identity
 * contracts extend to online sweeps.
 *
 * Failure modes.  Planning failures (checker rejections, unknown
 * workloads) surface as the job's Status.  A per-decision budget
 * (policy budget-ms) arms a CancelToken around each planning run;
 * on expiry the decision falls back to the UAS planner and is
 * counted in `fallbackDecisions` -- the job fails only if the
 * fallback fails too.  With a budget armed the commit sequence
 * depends on wall-clock time, so byte-identity holds only for
 * budget-free policies.
 */

#ifndef CSCHED_ONLINE_ONLINE_SCHEDULER_HH
#define CSCHED_ONLINE_ONLINE_SCHEDULER_HH

#include <vector>

#include "machine/machine.hh"
#include "online/arrival.hh"
#include "online/policy.hh"
#include "sched/schedule.hh"
#include "support/status.hh"

namespace csched {

/** One irrevocable region placement on the shared timeline. */
struct OnlineCommit
{
    /** The arrival this commit places. */
    int regionId = 0;
    std::string workload;
    int release = 0;
    int weight = 1;
    int deadline = -1;
    /** First cycle the region occupies the machine. */
    int start = 0;
    /** Cycles occupied: the region's verified schedule makespan. */
    int makespan = 0;
    int instructions = 0;
    int criticalPathLength = 0;
    /** True when the per-decision budget forced the UAS fallback. */
    bool fallback = false;
    /** The region-internal schedule (cycle offsets from `start`). */
    Schedule schedule;

    /** First cycle after the region: start + makespan. */
    int end() const { return start + makespan; }
};

/** The full outcome of one online run. */
struct OnlineRunResult
{
    /** Commits in start order (the timeline's final state). */
    std::vector<OnlineCommit> commits;
    /** Commits rolled back by preempt-and-recommit. */
    int preemptions = 0;
    /** Decisions that fell back to UAS on a budget expiry. */
    int fallbackDecisions = 0;
    /** True when the armed degradation event fired. */
    bool degradeFired = false;
    /** Regions re-planned on the surviving machine at the event. */
    int degradeReplans = 0;
};

/**
 * Run @p policy over @p arrivals (sorted by release, dense ids) on
 * @p machine.  Every region's plan is checker-verified before commit.
 * Errors (invalid streams, planning failures, cancellation) surface
 * as the Status; cancellation honors the grid's per-job CancelToken
 * through the usual pollCancellation checkpoints.
 *
 * When the policy arms a degradation event, @p degraded must be the
 * post-event machine (the same spec with the degrade-tiles also
 * dead; see tryParseMachineSpec's extra_dead_clusters hook) and must
 * outlive the call; InvalidSpec otherwise.
 */
StatusOr<OnlineRunResult>
runOnline(const MachineModel &machine, const OnlinePolicySpec &policy,
          const std::vector<RegionArrival> &arrivals,
          const MachineModel *degraded = nullptr);

} // namespace csched

#endif // CSCHED_ONLINE_ONLINE_SCHEDULER_HH
