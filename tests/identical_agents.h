#pragma once

/// \file identical_agents.h
/// A homogeneous population as explicit agents: finite_dynamics with N
/// copies of the params' own rule, so every agent draws its own stage-1
/// and stage-2 outcome (the v3 mixed kernel for m <= 64).  The same
/// population fully mixed is aggregate_dynamics' count process
/// (Propositions 4.1/4.2); law tests compare the two.

#include <cstddef>
#include <vector>

#include "core/finite_dynamics.h"
#include "core/params.h"

namespace sgl::core {

inline finite_dynamics identical_agents(const dynamics_params& params,
                                        std::size_t num_agents) {
  return finite_dynamics{
      params, num_agents, nullptr,
      std::vector<adoption_rule>(num_agents, {params.resolved_alpha(), params.beta})};
}

}  // namespace sgl::core
