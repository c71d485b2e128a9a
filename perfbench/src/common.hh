/**
 * @file
 * Shared plumbing of the benchmark driver: run options, the metric
 * record every workload fills, per-operation ledgers, seeding, and
 * process-level measurements (peak RSS).
 *
 * Every number is taken from outside the library: the driver times
 * calls into each module's public functions and reads the fields the
 * public types expose.  Nothing here reaches into src/ internals.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two clock readings. */
double secondsBetween(Clock::time_point begin, Clock::time_point end);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the csched_serve / csched_workerd binaries. */
    std::string binDir;
    /** Scratch directory for sockets and port files (relative path). */
    std::string runDir;
};

/**
 * What one workload run produced.  attempted/failed count operations
 * (schedules, requests, grid jobs); every failure also leaves a
 * diagnostic so a red run says why.  Metric units live with the metric
 * lists in main.cc.
 */
struct RunResult
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> diagnostics;
    std::map<std::string, double> metrics;

    void set(const std::string &name, double value);
    /** Record one failed operation with its reason. */
    void fail(const std::string &why);
};

/**
 * Verified-operation ledger behind the end-to-end metrics shared by
 * all workloads: per-operation latency and throughput (instructions
 * scheduled and checked per second of the operation's wall time), and
 * makespan / critical-path ratios.
 */
struct OpLedger
{
    std::vector<double> latencyMs;
    std::vector<double> instrRates;
    std::vector<double> cplRatios;
    long okOps = 0;
    long instructions = 0;

    /** A verified schedule of @p instrs instructions. */
    void ok(double latency_ms, int instrs, int makespan, int cpl);
    /** A failed or refused operation: its latency counts as infinite. */
    void failed();
    /**
     * Fill latency_p50_ms, latency_p95_ms, makespan_cpl_geomean and
     * instr_per_s, the geometric mean of the per-operation rates: one
     * slow operation moves it by its share, not by its size.  Goodput
     * depends on each workload's timed window and is set there.
     */
    void report(RunResult *out) const;
};

/** Independent 64-bit stream @p stream derived from @p seed. */
uint64_t subSeed(uint64_t seed, uint64_t stream);

/**
 * A degraded machine spec "<base>/faults=seed:<k>,<rest>" whose fault
 * seed k is the first value of the seeded sequence (@p seed, @p stream)
 * that yields a valid machine: some fault maps disconnect the mesh,
 * and every operation of a workload must be able to succeed.
 */
std::string faultySpec(const std::string &base, const std::string &rest,
                       uint64_t seed, uint64_t stream);

/**
 * Peak resident set of this process plus the largest waited-for
 * descendant, in MB (getrusage SELF + CHILDREN).  Children count only
 * once they have been reaped, so stop every daemon first.
 */
double peakRssMb();

/**
 * Run @p build five times and record the median wall time as setup_s.
 * Each repetition rebuilds the workload's whole state; the state of
 * the last one is kept for the timed phase.
 */
template <typename State, typename Build>
State
repeatSetup(RunResult *out, Build build)
{
    std::vector<double> seconds;
    State state;
    for (int rep = 0; rep < 5; ++rep) {
        state = State();  // tear down the previous repetition first
        const auto begin = Clock::now();
        state = build();
        seconds.push_back(secondsBetween(begin, Clock::now()));
    }
    out->set("setup_s", csched::median(seconds));
    return state;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
