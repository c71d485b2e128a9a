#include "traced_convergent.hh"

#include <chrono>
#include <exception>

#include "convergent/convergent_scheduler.hh"
#include "convergent/pass_registry.hh"
#include "convergent/preference_matrix.hh"
#include "convergent/sequences.hh"
#include "sched/list_scheduler.hh"
#include "sched/priorities.hh"
#include "support/rng.hh"
#include "support/status.hh"

namespace perfbench {

using namespace csched;

namespace {

/** Charges the time since the previous lap to one phase counter. */
class LapClock
{
  public:
    LapClock() : start_(std::chrono::steady_clock::now()), last_(start_)
    {
    }

    void
    lap(int64_t *phase)
    {
        const auto now = std::chrono::steady_clock::now();
        *phase += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      now - last_)
                      .count();
        last_ = now;
    }

    int64_t
    totalNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   last_ - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point last_;
};

bool
isRaw(const MachineModel &machine)
{
    return machine.commStyle() == CommStyle::Network;
}

} // namespace

int64_t
ConvergentPhases::passTotal() const
{
    int64_t total = 0;
    for (const auto &[name, ns] : pass)
        total += ns;
    return total;
}

int64_t
ConvergentPhases::engineTotal() const
{
    return matrixCtor + snapshot + guard + prefDiff + extract +
           passTotal();
}

TracedConvergent::TracedConvergent(const MachineModel &machine)
    : machine_(machine),
      passes_(parsePassSequence(isRaw(machine) ? rawPassSequence()
                                               : vliwPassSequence())),
      params_(isRaw(machine) ? rawPassParams() : vliwPassParams())
{
}

std::vector<std::string>
TracedConvergent::passNames() const
{
    std::vector<std::string> names;
    for (const auto &pass : passes_)
        names.push_back(pass->name());
    return names;
}

TracedRun
TracedConvergent::run(const DependenceGraph &graph) const
{
    const int n = graph.numInstructions();
    const int clusters = machine_.numClusters();
    TracedRun out;
    ConvergentPhases &ph = out.phases;
    LapClock clock;

    PreferenceMatrix weights(n, graph.criticalPathLength(), clusters);
    if (machine_.degraded()) {
        for (InstrId i = 0; i < n; ++i) {
            auto row = weights.row(i);
            for (int c = 0; c < clusters; ++c)
                if (!machine_.clusterAlive(c))
                    row.zeroCluster(c);
            row.normalize();
        }
    }
    Rng rng(params_.noiseSeed);
    PassContext ctx{graph, machine_, weights, params_, rng};
    clock.lap(&ph.matrixCtor);

    std::vector<int> before = weights.preferredClusters();
    clock.lap(&ph.prefDiff);
    PreferenceMatrix snapshot = weights;
    clock.lap(&ph.snapshot);

    for (const auto &pass : passes_) {
        const std::string name = pass->name();
        snapshot = weights;
        clock.lap(&ph.snapshot);
        bool skipped = false;
        try {
            pass->run(ctx);
            clock.lap(&ph.pass[name]);
            if (!checkWeightInvariants(weights, name).ok()) {
                weights.normalizeAll();
                const Status recheck = checkWeightInvariants(weights, name);
                if (!recheck.ok())
                    throw StatusError(recheck);
            }
            clock.lap(&ph.guard);
        } catch (const StatusError &error) {
            if (error.status.code() == ErrorCode::Timeout ||
                error.status.code() == ErrorCode::Interrupted)
                throw;
            skipped = true;
        } catch (const std::exception &) {
            skipped = true;
        }
        if (skipped) {
            weights = snapshot;
            ++out.skippedPasses;
            clock.lap(&ph.guard);
        }
        const std::vector<int> after = weights.preferredClusters();
        int changed = 0;
        for (InstrId i = 0; i < n; ++i)
            if (after[i] != before[i])
                ++changed;
        // The library records `changed` in its trace; the count is
        // kept here so the phase does the same work.
        before = after;
        clock.lap(&ph.prefDiff);
        (void)changed;
    }

    out.assignment.assign(n, 0);
    std::vector<int> preferred_time(n);
    for (InstrId i = 0; i < n; ++i) {
        const auto &instr = graph.instr(i);
        int cluster = weights.preferredCluster(i);
        if (instr.preplaced())
            cluster = instr.homeCluster;
        if (!machine_.canExecute(cluster, instr.op)) {
            int best = -1;
            for (int c = 0; c < clusters; ++c) {
                if (!machine_.canExecute(c, instr.op))
                    continue;
                if (best == -1 || weights.spaceMarginal(i, c) >
                                      weights.spaceMarginal(i, best))
                    best = c;
            }
            cluster = best;
        }
        out.assignment[i] = cluster;
        preferred_time[i] = weights.preferredTime(i);
    }
    clock.lap(&ph.extract);

    const ListScheduler scheduler(machine_);
    const auto priority =
        isRaw(machine_) ? criticalPathPriority(graph)
                        : preferredTimePriority(graph, preferred_time);
    out.schedule = scheduler.run(graph, out.assignment, priority);
    clock.lap(&ph.listSched);
    out.wallNs = clock.totalNs();

    // Footprint of the dense arena and the final feasible-window fill,
    // read after the last lap so they cost the phases nothing.
    out.matrixBytes = static_cast<double>(n) * weights.numTimes() *
                      clusters * sizeof(double);
    int64_t window_slots = 0;
    for (InstrId i = 0; i < n; ++i) {
        const auto row = static_cast<const PreferenceMatrix &>(weights)
                             .row(i);
        window_slots += row.windowHi() - row.windowLo();
    }
    out.windowFill =
        n == 0 ? 0.0
               : static_cast<double>(window_slots) /
                     (static_cast<double>(n) * weights.numTimes());

    return out;
}

} // namespace perfbench
