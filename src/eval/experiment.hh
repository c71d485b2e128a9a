/**
 * @file
 * Experiment driver: constructs algorithms from declarative specs,
 * runs them on workloads, verifies every produced schedule with the
 * checker, and reports makespans and wall-clock scheduling times.
 *
 * The single source of truth for "which algorithm is this?" is
 * AlgorithmSpec, parsed in exactly one place (parseAlgorithmSpec) from
 * strings such as "uas" or "convergent:INITTIME,PLACE,COMM".  Every
 * driver -- csched_cli, csched_bench, the per-figure bench binaries,
 * and the grid runner -- goes through it.
 */

#ifndef CSCHED_EVAL_EXPERIMENT_HH
#define CSCHED_EVAL_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "convergent/convergent_scheduler.hh"
#include "machine/machine.hh"
#include "sched/algorithm.hh"
#include "support/status.hh"

namespace csched {

/** Adapter exposing the convergent scheduler as a SchedulingAlgorithm. */
class ConvergentAlgorithm : public SchedulingAlgorithm
{
  public:
    /** Use the Table-1 sequence matching the machine family. */
    explicit ConvergentAlgorithm(const MachineModel &machine);

    /** Use an explicit pass sequence. */
    ConvergentAlgorithm(const MachineModel &machine,
                        const std::string &sequence,
                        PassParams params = PassParams());

    std::string name() const override { return "Convergent"; }

    /** Full result: schedule plus the convergence/timing trace. */
    ScheduleResult run(const DependenceGraph &graph) const override;

  private:
    ConvergentScheduler scheduler_;
};

/**
 * Declarative description of one scheduling algorithm, the unit the
 * experiment grid iterates over.  `name` is one of "convergent",
 * "uas", "pcc", "rawcc", "single", or "bug".  For "convergent",
 * `sequence` optionally overrides the Table-1 pass pipeline and
 * `params` optionally overrides the family-tuned heuristic weights;
 * both default to the machine-family presets of sequences.hh.
 */
struct AlgorithmSpec
{
    std::string name = "convergent";
    std::string sequence;
    std::optional<PassParams> params;

    /**
     * The spec in its parseable text form, e.g.
     * "convergent:INITTIME,PLACE".  Used as the stable identity of
     * the algorithm in reports and JSON output.
     */
    std::string text() const;
};

/** Algorithm names accepted by parseAlgorithmSpec, in display order. */
const std::vector<std::string> &knownAlgorithmNames();

/**
 * Parse "name[:PASS,PASS,...]" into a spec.  The only place algorithm
 * spellings are interpreted.  On malformed input returns std::nullopt
 * and, when @p error is non-null, stores a human-readable reason.
 */
std::optional<AlgorithmSpec>
parseAlgorithmSpec(const std::string &text, std::string *error = nullptr);

/** Construct the algorithm described by @p spec bound to @p machine. */
std::unique_ptr<SchedulingAlgorithm>
makeAlgorithm(const AlgorithmSpec &spec, const MachineModel &machine);

/**
 * Non-fatal variant of makeAlgorithm: InvalidSpec when the spec names
 * an unknown algorithm (specs should come from parseAlgorithmSpec).
 */
StatusOr<std::unique_ptr<SchedulingAlgorithm>>
tryMakeAlgorithm(const AlgorithmSpec &spec, const MachineModel &machine);

/** One algorithm-on-workload measurement. */
struct RunResult
{
    std::string algorithm;
    int instructions = 0;
    int makespan = 0;
    double seconds = 0.0;  ///< wall-clock scheduling time
    /** Schedule plus pass trace; no longer thrown away. */
    ScheduleResult result;
};

/**
 * Run @p algorithm on @p graph, verify the schedule (fatal on any
 * checker violation: experiments must never report illegal
 * schedules), and measure the scheduling time.
 */
RunResult runAndCheck(const SchedulingAlgorithm &algorithm,
                      const DependenceGraph &graph,
                      const MachineModel &machine);

/**
 * Re-home the graph's preplaced instructions onto the alive clusters
 * of @p machine (graph.remapPreplacedHomes with the machine's
 * remapToAlive table); a no-op on pristine machines.  Every driver
 * must call this after building a workload graph for a degraded
 * machine -- the workload generators interleave homes over all
 * clusters, including dead ones.
 */
void remapPreplacedForMachine(DependenceGraph &graph,
                              const MachineModel &machine);

/**
 * Non-fatal variant of runAndCheck: a checker rejection becomes a
 * CheckFailed status carrying the violations, so the grid runner can
 * record it as a per-job outcome instead of killing the process.
 * Hits the "checker.verify" fault point before verification.  On a
 * degraded machine, a graph whose preplaced homes were not re-homed
 * (remapPreplacedForMachine) fails up front with InvalidSpec.
 */
StatusOr<RunResult> tryRunAndCheck(const SchedulingAlgorithm &algorithm,
                                   const DependenceGraph &graph,
                                   const MachineModel &machine);

} // namespace csched

#endif // CSCHED_EVAL_EXPERIMENT_HH
