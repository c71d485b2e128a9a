/**
 * @file
 * The grid front end csched_bench and csched_cli share: one parser for
 * the grid-execution flags both tools accept, and one run -> report ->
 * failure-summary -> exit tail.  Each tool keeps only its own axis
 * flags and its human-readable print.
 *
 * Grid-execution flags (see the tools' headers for their meaning):
 *   --jobs N  --deadline-ms N  --retries N  --isolate  --mem-limit-mb N
 *   --journal FILE  --resume  --hosts CSV  --keep-going  --json FILE
 *   and the hidden --dist-opts KNOBS and --inject RULES.
 *
 * Exit codes follow runner/failure_summary.hh: 0 ok (or --keep-going),
 * 1 a failed job or an unwritable report, 2 a usage error caught
 * before any job ran, 128+signum an interrupted run.
 */

#ifndef CSCHED_TOOLS_GRID_DRIVER_HH
#define CSCHED_TOOLS_GRID_DRIVER_HH

#include <functional>
#include <string>
#include <vector>

#include "dist/remote_pool.hh"
#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "support/fault_injection.hh"

namespace csched {

/** A tool's usage(): print @p why and the synopsis, exit 2. */
using UsageFn = void (*)(const char *argv0, const std::string &why);

/** The parsed grid-execution flags. */
struct GridFlags
{
    /**
     * The grid to run.  The flags fill its execution knobs; the tool
     * fills the axes (and computeSpeedup) before runGridAndReport.
     */
    GridSpec grid;
    FaultPlan faults;   ///< --inject
    DistOptions dist;   ///< --dist-opts
    std::string jsonFile;
    bool keepGoing = false;
};

/**
 * Consume the grid-execution flag at args[k], if it is one, into
 * @p flags and advance @p k past its value.  Returns false (leaving
 * @p k alone) when args[k] is some other flag.  A missing or
 * malformed value is a usage error.
 */
bool parseGridFlag(const char *argv0, UsageFn usage,
                   const std::vector<std::string> &args, size_t &k,
                   GridFlags &flags);

/**
 * Run @p flags.grid and write its outputs: validate it (usage error
 * on an invalid grid, --resume without --journal, or a journal
 * written for a different grid), install the
 * signal handlers, run it, hand the report to @p print (may be empty),
 * write the JSON report ("-" = stdout; a file is written atomically
 * under the "report" fault scope and announced on stdout when
 * @p announce_write), print the failure summary to stderr, and return
 * the exit code.
 */
int runGridAndReport(const char *argv0, UsageFn usage,
                     const GridFlags &flags,
                     const ReportOptions &report_options,
                     bool announce_write,
                     const std::function<void(const GridReport &)> &print);

} // namespace csched

#endif // CSCHED_TOOLS_GRID_DRIVER_HH
