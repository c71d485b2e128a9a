/**
 * @file
 * Helpers for the convergence figures (7 and 9): extract the spatial
 * passes from a convergent run's trace and format the per-pass
 * fraction-changed series.
 */

#ifndef CSCHED_EVAL_CONVERGENCE_TRACE_HH
#define CSCHED_EVAL_CONVERGENCE_TRACE_HH

#include <vector>

#include "convergent/convergent_scheduler.hh"

namespace csched {

/**
 * Keep only the passes that can modify spatial preferences, as the
 * paper's Figures 7 and 9 do ("they exclude passes that only modify
 * temporal preferences").
 */
std::vector<PassStep> spatialSteps(const std::vector<PassStep> &trace);

} // namespace csched

#endif // CSCHED_EVAL_CONVERGENCE_TRACE_HH
