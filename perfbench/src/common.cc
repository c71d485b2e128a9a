#include "common.hh"

#include <cmath>
#include <limits>

#include <sys/resource.h>

#include "machine/machine_spec.hh"

namespace perfbench {

double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

void
RunResult::set(const std::string &name, double value)
{
    metrics[name] = value;
}

void
RunResult::fail(const std::string &why)
{
    ++failed;
    if (diagnostics.size() < 20)
        diagnostics.push_back(why);
}

void
OpLedger::ok(double latency_ms, int instrs, int makespan, int cpl)
{
    latencyMs.push_back(latency_ms);
    instrRates.push_back(instrs / (latency_ms / 1e3));
    cplRatios.push_back(static_cast<double>(makespan) / cpl);
    ++okOps;
    instructions += instrs;
}

void
OpLedger::failed()
{
    latencyMs.push_back(std::numeric_limits<double>::infinity());
}

void
OpLedger::report(RunResult *out) const
{
    out->set("latency_p50_ms", csched::percentile(latencyMs, 50));
    out->set("latency_p95_ms", csched::percentile(latencyMs, 95));
    out->set("makespan_cpl_geomean",
             cplRatios.empty() ? 0.0 : csched::geomean(cplRatios));
    out->set("instr_per_s",
             instrRates.empty() ? 0.0 : csched::geomean(instrRates));
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct streams of one seed
    // and equal streams of distinct seeds both decorrelate.
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
faultySpec(const std::string &base, const std::string &rest, uint64_t seed,
           uint64_t stream)
{
    for (uint64_t attempt = 0;; ++attempt) {
        const std::string spec =
            base + "/faults=seed:" +
            std::to_string(subSeed(subSeed(seed, stream), attempt) %
                           1000000) +
            "," + rest;
        if (csched::isValidMachineSpec(spec))
            return spec;
    }
}

double
peakRssMb()
{
    struct rusage self {};
    struct rusage children {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in kilobytes on Linux.
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) /
           1024.0;
}

} // namespace perfbench
