#include "eval/convergence_trace.hh"

namespace csched {

std::vector<PassStep>
spatialSteps(const std::vector<PassStep> &trace)
{
    std::vector<PassStep> out;
    for (const auto &step : trace)
        if (!step.temporalOnly)
            out.push_back(step);
    return out;
}

} // namespace csched
