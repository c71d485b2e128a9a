/**
 * @file
 * The benchmark driver.
 *
 *   csched_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --bin-dir DIR --run-dir DIR
 *
 * Runs one workload (convergent-regions, mesh-baselines, serve-stream
 * or fleet-grid), prints a human-readable table of every metric, and
 * ends stdout with one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * the per-layer set (a metric a workload does not exercise reads 0).
 * Exit code: 0 when the run completed (correct or not), 2 for usage
 * errors, 1 when the workload could not be set up.
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>

#include "common.hh"
#include "convergent/pass_registry.hh"
#include "convergent/sequences.hh"
#include "support/status.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList &
endToEndMetrics()
{
    static const MetricList list = {
        {"setup_s", "s"},
        {"instr_per_s", "instr/s"},
        {"peak_rss_mb", "MB"},
        {"makespan_cpl_geomean", "ratio"},
        {"latency_p50_ms", "ms"},
        {"latency_p95_ms", "ms"},
        {"goodput_rps", "1/s"},
    };
    return list;
}

std::vector<std::string>
uniquePasses(const std::string &sequence)
{
    std::vector<std::string> names;
    for (const auto &pass : csched::parsePassSequence(sequence)) {
        const std::string name = pass->name();
        if (std::find(names.begin(), names.end(), name) == names.end())
            names.push_back(name);
    }
    return names;
}

MetricList
perLayerMetrics()
{
    MetricList list = {{"ir.graph_build_s", "s"},
                       {"machine.construct_s", "s"}};
    for (const char *phase :
         {"matrix_ctor", "snapshot", "guard", "pref_diff", "extract",
          "pass", "traced_total"}) {
        const std::string base = std::string("convergent.") + phase + "_s";
        list.push_back({base, "s"});
        list.push_back({base + ".wide", "s"});
        list.push_back({base + ".narrow", "s"});
    }
    // Wide regions run the VLIW sequence, narrow ones the Raw one.
    const std::pair<const char *, std::vector<std::string>> shapes[] = {
        {"wide", uniquePasses(csched::vliwPassSequence())},
        {"narrow", uniquePasses(csched::rawPassSequence())}};
    std::set<std::string> all;
    for (const auto &[shape, passes] : shapes) {
        for (const auto &pass : passes) {
            list.push_back(
                {"convergent.pass." + pass + "_s." + shape, "s"});
            all.insert(pass);
        }
    }
    for (const auto &pass : all)
        list.push_back({"convergent.pass." + pass + "_s", "s"});
    for (const char *name : {"convergent.matrix_bytes"}) {
        list.push_back({name, "B"});
        list.push_back({std::string(name) + ".wide", "B"});
        list.push_back({std::string(name) + ".narrow", "B"});
    }
    for (const char *name : {"convergent.window_fill"}) {
        list.push_back({name, "ratio"});
        list.push_back({std::string(name) + ".wide", "ratio"});
        list.push_back({std::string(name) + ".narrow", "ratio"});
    }
    const MetricList rest = {
        {"convergent.skipped_passes", "count"},
        {"convergent.schedule_s", "s"},
        {"sched.list_s", "s"},
        {"sched.check_s", "s"},
        {"baseline.uas_s", "s"},
        {"baseline.pcc_s", "s"},
        {"baseline.rawcc_s", "s"},
        {"trace.coverage", "ratio"},
        {"trace.stale", "count"},
        {"trace.overhead_instr_per_s", "instr/s"},
        {"serve.queue_ms_p50", "ms"},
        {"serve.queue_ms_p95", "ms"},
        {"serve.exec_ms_p50", "ms"},
        {"serve.overhead_ms_p50", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.coalesced_ratio", "ratio"},
        {"serve.rejected", "count"},
        {"serve.generator_lag_ms_max", "ms"},
        {"runner.grid_wall_s", "s"},
        {"runner.exec_s", "s"},
        {"dist.slot_busy_ratio", "ratio"},
        {"runner.extra_attempts", "count"},
    };
    list.insert(list.end(), rest.begin(), rest.end());
    return list;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "csched_perfbench: " << why << "\n"
              << "usage: csched_perfbench --workload NAME --seed N"
              << " --seconds S --trace 0|1 --bin-dir DIR --run-dir DIR\n"
              << "  [--list-metrics]\n";
    std::exit(2);
}

/** A JSON number with all its digits; non-finite values are capped. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        value = value > 0 ? 1e9 : -1e9;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    // Pin glibc's mmap threshold (disabling its dynamic growth) so
    // every large buffer is returned to the system when freed: peak
    // RSS then tracks live memory instead of growing with the number
    // of regions a run happens to fit.
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
    Options opts;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            // One "<set> <name> <unit>" line per metric, for run.py's
            // cross-check against BENCHMARK.json.
            for (const auto &[name, unit] : endToEndMetrics())
                std::cout << "end_to_end " << name << " " << unit << "\n";
            for (const auto &[name, unit] : perLayerMetrics())
                std::cout << "per_layer " << name << " " << unit << "\n";
            return 0;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = value;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value);
                have_seconds = opts.seconds > 0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = value == "1";
                have_trace = true;
            } else if (arg == "--bin-dir") {
                opts.binDir = value;
            } else if (arg == "--run-dir") {
                opts.runDir = value;
            } else {
                usage("unknown option '" + arg + "'");
            }
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (opts.workload.empty() || !have_seed || !have_seconds ||
        !have_trace || opts.binDir.empty() || opts.runDir.empty())
        usage("--workload, --seed, --seconds, --trace, --bin-dir and "
              "--run-dir are required");

    RunResult result;
    try {
        if (opts.workload == "convergent-regions")
            result = runConvergentRegions(opts);
        else if (opts.workload == "mesh-baselines")
            result = runMeshBaselines(opts);
        else if (opts.workload == "serve-stream")
            result = runServeStream(opts);
        else if (opts.workload == "fleet-grid")
            result = runFleetGrid(opts);
        else
            usage("unknown workload '" + opts.workload + "'");
    } catch (const csched::StatusError &error) {
        std::cerr << "csched_perfbench: " << opts.workload
                  << ": set-up failed: " << error.status.toString() << "\n";
        return 1;
    } catch (const std::exception &error) {
        std::cerr << "csched_perfbench: " << opts.workload
                  << ": set-up failed: " << error.what() << "\n";
        return 1;
    }
    // Every daemon has been reaped by now, so CHILDREN covers them.
    result.set("peak_rss_mb", peakRssMb());

    const bool correct = result.failed == 0 && result.attempted > 0;
    const double error_rate =
        result.attempted > 0
            ? static_cast<double>(result.failed) / result.attempted
            : 1.0;
    std::cout << "workload " << opts.workload << "  seed " << opts.seed
              << "  seconds " << opts.seconds << "  trace "
              << (opts.trace ? 1 : 0) << "\n"
              << "build " << PERFBENCH_BUILD_TYPE << " flags '"
              << PERFBENCH_CXX_FLAGS << "'\n";
    for (const auto &why : result.diagnostics)
        std::cerr << "csched_perfbench: failure: " << why << "\n";

    const MetricList selected =
        opts.trace ? perLayerMetrics() : endToEndMetrics();
    std::string json = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : selected) {
        const auto it = result.metrics.find(name);
        const double value =
            it == result.metrics.end() ? 0.0 : it->second;
        std::printf("  %-40s %16.6g %s\n", name.c_str(), value,
                    unit.c_str());
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + jsonNumber(value) +
                ", \"unit\": \"" + unit + "\"}";
        first = false;
    }
    std::printf("  %-40s %16.6g %s\n", "error_rate", error_rate, "ratio");
    std::fflush(stdout);
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
