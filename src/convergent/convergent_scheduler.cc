#include "convergent/convergent_scheduler.hh"

#include <chrono>
#include <cmath>
#include <optional>

#include "convergent/pass_registry.hh"
#include "convergent/preference_matrix.hh"
#include "convergent/sequences.hh"
#include "sched/list_scheduler.hh"
#include "sched/priorities.hh"
#include "support/cancel.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"

namespace csched {

namespace {

/** The Section-3 invariants of one row; see checkWeightInvariants. */
Status
checkRowInvariants(const PreferenceMatrix &weights, InstrId i,
                   const std::string &pass)
{
    // The normalize() sweep that wrote these exact bytes already ran
    // this check (same tolerances, same sums).
    if (weights.verified(i))
        return Status();

    constexpr double kSlack = PreferenceMatrix::kWeightSlack;
    constexpr double kSumSlack = PreferenceMatrix::kSumSlack;

    const auto fail = [&pass, i](const std::string &what) {
        return Status::checkFailed(
            "pass '" + pass + "' broke the weight invariants: " +
            what + " (instruction " + std::to_string(i) + ")");
    };

    // Slots outside the row's feasible window are exactly zero by
    // construction, so checking the window checks the whole row.  The
    // row sum is the sum of the cluster sums, as in normalize()'s
    // verdict.
    const auto row = weights.row(i);
    double sum = 0.0;
    for (int c = 0; c < weights.numClusters(); ++c) {
        double cluster_sum = 0.0;
        for (const double w : row.windowSpan(c)) {
            if (!std::isfinite(w))
                return fail("non-finite weight");
            if (w < -kSlack || w > 1.0 + kSlack)
                return fail("weight " + std::to_string(w) +
                            " outside [0, 1]");
            cluster_sum += w;
        }
        sum += cluster_sum;
    }
    if (std::abs(sum - 1.0) > kSumSlack)
        return fail("row sums to " + std::to_string(sum) + ", not 1");
    return Status();
}

} // namespace

Status
checkWeightInvariants(const PreferenceMatrix &weights,
                      const std::string &pass)
{
    for (InstrId i = 0; i < weights.numInstructions(); ++i) {
        Status status = checkRowInvariants(weights, i, pass);
        if (!status.ok())
            return status;
    }
    return Status();
}

ConvergentScheduler::ConvergentScheduler(const MachineModel &machine,
                                         const std::string &sequence,
                                         PassParams params)
    : ConvergentScheduler(machine, parsePassSequence(sequence), params)
{
}

ConvergentScheduler::ConvergentScheduler(
    const MachineModel &machine, std::vector<std::unique_ptr<Pass>> passes,
    PassParams params)
    : machine_(machine), passes_(std::move(passes)), params_(params)
{
}

ConvergentScheduler
ConvergentScheduler::forMachine(const MachineModel &machine)
{
    const bool is_raw = machine.commStyle() == CommStyle::Network;
    return ConvergentScheduler(
        machine, is_raw ? rawPassSequence() : vliwPassSequence(),
        is_raw ? rawPassParams() : vliwPassParams());
}

std::vector<std::string>
ConvergentScheduler::passNames() const
{
    std::vector<std::string> names;
    for (const auto &pass : passes_)
        names.push_back(pass->name());
    return names;
}

ConvergentResult
ConvergentScheduler::schedule(const DependenceGraph &graph) const
{
    CSCHED_ASSERT(graph.finalized(), "graph must be finalized");
    const int n = graph.numInstructions();

    // On a degraded machine, mask dead clusters out of every row up
    // front (zero + renormalize): passes then redistribute preference
    // mass among alive clusters only, and INITTIME's capability
    // masking keeps the columns zero for the rest of the pipeline.
    // Every row is still pristine, so this rewrites only the template.
    const auto fresh_matrix = [&] {
        PreferenceMatrix matrix(n, graph.criticalPathLength(),
                                machine_.numClusters());
        if (machine_.degraded()) {
            std::vector<int> dead;
            for (int c = 0; c < machine_.numClusters(); ++c)
                if (!machine_.clusterAlive(c))
                    dead.push_back(c);
            matrix.maskPristineClusters(dead);
        }
        return matrix;
    };
    PreferenceMatrix weights = fresh_matrix();
    Rng rng(params_.noiseSeed);
    PassContext ctx{graph, machine_, weights, params_, rng};

    // Guard the Section-3 invariants after a pass.  The guard trusts
    // every verified row (pristine, or last written by an in-range
    // normalize) and walks the rest.  A pass that scaled without
    // normalizing is healed by one renormalization; anything
    // normalization cannot restore (non-finite weights) throws.
    const auto guard = [&weights](const Pass &pass) {
        if (checkWeightInvariants(weights, pass.name()).ok())
            return;
        weights.normalizeAll();
        const Status recheck = checkWeightInvariants(weights, pass.name());
        if (!recheck.ok())
            throw StatusError(recheck);
    };

    ConvergentResult result{std::vector<int>(n), std::vector<int>(n),
                            Schedule(n, machine_.numClusters()),
                            {}};

    std::vector<int> before = weights.preferredClusters();
    std::vector<bool> skipped(passes_.size(), false);
    for (size_t k = 0; k < passes_.size(); ++k) {
        Pass &pass = *passes_[k];
        checkpoint("pass.apply");
        // Pass-level graceful degradation (the paper's Section-4
        // claim that the composition tolerates individual passes
        // misbehaving): if the pass throws or leaves invariants that
        // one renormalization cannot heal, continue without it -- the
        // step is marked "skipped" in the trace.  Cooperative
        // cancellation (deadline, shutdown) must still unwind: a
        // skipped pass is a degraded schedule, a missed deadline is
        // not.
        const auto begin = std::chrono::steady_clock::now();
        std::optional<std::chrono::steady_clock::time_point> end;
        std::string skip_reason;
        try {
            pass.run(ctx);
            end = std::chrono::steady_clock::now();
            // Deterministic stand-in for a throwing pass (tests).
            faultPoint("pass.body");
            guard(pass);
        } catch (const StatusError &error) {
            if (error.status.code() == ErrorCode::Timeout ||
                error.status.code() == ErrorCode::Interrupted)
                throw;
            skip_reason = error.status.toString();
        } catch (const std::exception &error) {
            skip_reason = error.what();
        }
        if (!end.has_value())
            end = std::chrono::steady_clock::now();
        if (!skip_reason.empty()) {
            CSCHED_WARN("pass '", pass.name(),
                        "' skipped (matrix rebuilt without it): ",
                        skip_reason);
            // Rebuild the matrix as the sequence without this pass (and
            // without any pass skipped earlier) leaves it: fresh weights
            // and noise stream, then the passes before it replayed.
            // Passes are deterministic, so a replay that fails is a bug
            // and fails the run; it hits no fault point.
            skipped[k] = true;
            weights = fresh_matrix();
            rng = Rng(params_.noiseSeed);
            for (size_t j = 0; j < k; ++j) {
                if (skipped[j])
                    continue;
                pollCancellation("pass.apply");
                passes_[j]->run(ctx);
                guard(*passes_[j]);
            }
        }
        // normalize() caches a row's preferred cluster, so counting
        // over every row reads a cache, bar rows reset to uniform.
        int changed = 0;
        for (InstrId i = 0; i < n; ++i) {
            const int after = weights.preferredCluster(i);
            if (after != before[i]) {
                before[i] = after;
                ++changed;
            }
        }
        result.trace.push_back(
            {pass.name(), static_cast<double>(changed) / n,
             pass.temporalOnly(),
             std::chrono::duration<double>(*end - begin).count(),
             skipped[k]});
    }

    // Extract the assignment: preferred cluster, with preplaced
    // instructions clamped to their homes (correctness requirement).
    for (InstrId i = 0; i < n; ++i) {
        const auto &instr = graph.instr(i);
        int cluster = weights.preferredCluster(i);
        if (instr.preplaced())
            cluster = instr.homeCluster;
        if (!machine_.canExecute(cluster, instr.op)) {
            // Fall back to the best capable cluster.
            int best = -1;
            for (int c = 0; c < machine_.numClusters(); ++c) {
                if (!machine_.canExecute(c, instr.op))
                    continue;
                if (best == -1 || weights.spaceMarginal(i, c) >
                                      weights.spaceMarginal(i, best)) {
                    best = c;
                }
            }
            CSCHED_ASSERT(best != -1, "no cluster can execute ",
                          opcodeName(instr.op));
            cluster = best;
        }
        result.assignment[i] = cluster;
        result.preferredTime[i] = weights.preferredTime(i);
    }

    // Integration with the host scheduler follows the paper's Section
    // 5: Chorus (the clustered VLIW) uses the temporal assignments as
    // list-scheduling priorities, while on Raw "the temporal
    // assignments are computed independently by its own instruction
    // scheduler" -- i.e. classic critical-path list scheduling over
    // the convergent spatial assignment.
    const ListScheduler scheduler(machine_);
    const auto priority =
        machine_.commStyle() == CommStyle::Network
            ? criticalPathPriority(graph)
            : preferredTimePriority(graph, result.preferredTime);
    result.schedule = scheduler.run(graph, result.assignment, priority);
    return result;
}

} // namespace csched
