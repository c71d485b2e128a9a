/**
 * @file
 * The convergent scheduler driver (Sections 2 and 5).
 *
 * Runs a configured pass pipeline over a fresh uniform preference
 * matrix, records the convergence of spatial preferences after every
 * pass (the data behind Figures 7 and 9), then extracts the cluster
 * assignment (each instruction's preferred cluster, with preplaced
 * instructions clamped to their homes) and uses the preferred times as
 * priorities for the cycle-driven list scheduler.
 */

#ifndef CSCHED_CONVERGENT_CONVERGENT_SCHEDULER_HH
#define CSCHED_CONVERGENT_CONVERGENT_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "convergent/pass.hh"
#include "sched/algorithm.hh"
#include "sched/schedule.hh"
#include "support/status.hh"

namespace csched {

class PreferenceMatrix;

/**
 * Verify the paper's Section-3 matrix invariants over the whole
 * matrix: every weight finite and in [0, 1], every instruction row
 * summing to 1.  Returns a CheckFailed Status naming @p pass on the
 * first violation.  A row PreferenceMatrix::verified() vouches for is
 * trusted; every other row is walked.  The scheduler calls this after
 * every pass.  On violation it renormalizes once (the legitimate fix
 * for a pass that scaled without normalizing) and checks again; if
 * the invariants still do not hold (non-finite weights, which
 * normalization cannot heal), the pass is skipped.
 */
Status checkWeightInvariants(const PreferenceMatrix &weights,
                             const std::string &pass);

/** Everything a convergent-scheduling run produces. */
struct ConvergentResult
{
    std::vector<int> assignment;
    std::vector<int> preferredTime;
    Schedule schedule;
    std::vector<PassStep> trace;
};

/** A configured convergent scheduler bound to one machine. */
class ConvergentScheduler
{
  public:
    /**
     * Create a scheduler from a comma-separated pass sequence (see
     * pass_registry.hh and sequences.hh).
     */
    ConvergentScheduler(const MachineModel &machine,
                        const std::string &sequence,
                        PassParams params = PassParams());

    /** Create a scheduler from an already-built pass pipeline. */
    ConvergentScheduler(const MachineModel &machine,
                        std::vector<std::unique_ptr<Pass>> passes,
                        PassParams params = PassParams());

    /**
     * Convenience: the Table-1 sequence and tuned heuristic weights
     * matching the machine's family (see sequences.hh).
     */
    static ConvergentScheduler forMachine(const MachineModel &machine);

    /**
     * Run the pipeline and produce the final space-time schedule.  A
     * pass that throws or breaks the weight invariants beyond healing
     * is skipped: the matrix and the noise stream are rebuilt by
     * replaying the passes before it on a fresh matrix, so the run
     * equals the sequence without it.
     */
    ConvergentResult schedule(const DependenceGraph &graph) const;

    /** Pass names in pipeline order. */
    std::vector<std::string> passNames() const;

    const PassParams &params() const { return params_; }

  private:
    const MachineModel &machine_;
    std::vector<std::unique_ptr<Pass>> passes_;
    PassParams params_;
};

} // namespace csched

#endif // CSCHED_CONVERGENT_CONVERGENT_SCHEDULER_HH
