/**
 * @file
 * The four benchmark workloads.  Each builds its inputs from the
 * workload seed, repeats its set-up, measures for opts.seconds,
 * verifies every result, and fills the end-to-end metrics (and, with
 * opts.trace, the per-layer metrics) into a RunResult.  Workloads run
 * whole cycles of a fixed, seeded operation set, so the mix measured
 * does not depend on how fast the code is.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench {

/** Seeded 10k-wide / 2k-narrow random DAGs, convergent, in process. */
RunResult runConvergentRegions(const Options &opts);

/** UAS, RawCC, PCC and convergent on 64-1024-tile meshes, in process. */
RunResult runMeshBaselines(const Options &opts);

/** Open-loop Poisson stream against a csched_serve daemon. */
RunResult runServeStream(const Options &opts);

/** Batch grids on two localhost csched_workerd daemons. */
RunResult runFleetGrid(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
