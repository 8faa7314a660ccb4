#include "core/infinite_dynamics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sgl::core {

infinite_dynamics::infinite_dynamics(const dynamics_params& params,
                                     std::span<const double> start)
    : params_{params} {
  params_.validate();
  const std::size_t m = params_.num_options;
  if (start.empty()) {
    start_.assign(m, 1.0 / static_cast<double>(m));
  } else {
    if (start.size() != m) {
      throw std::invalid_argument{"infinite_dynamics: start size mismatch"};
    }
    double total = 0.0;
    for (const double x : start) {
      if (!(x >= 0.0)) {
        throw std::invalid_argument{"infinite_dynamics: start has negative mass"};
      }
      total += x;
    }
    if (std::abs(total - 1.0) > 1e-9) {
      throw std::invalid_argument{"infinite_dynamics: start is not a probability vector"};
    }
    for (const double x : start) start_.push_back(x / total);
  }
  p_.assign(m, 0.0);
  scratch_.assign(m, 0.0);
  reset();
}

void infinite_dynamics::reset() {
  std::copy(start_.begin(), start_.end(), p_.begin());
  log_potential_ = std::log(static_cast<double>(p_.size()));
  steps_ = 0;
  degenerate_steps_ = 0;
}

void infinite_dynamics::step(std::span<const std::uint8_t> rewards) {
  if (rewards.size() != p_.size()) {
    throw std::invalid_argument{"infinite_dynamics::step: reward width mismatch"};
  }
  const double m = static_cast<double>(p_.size());
  const double alpha = params_.resolved_alpha();
  const double beta = params_.beta;
  const double mu = params_.mu;

  double z = 0.0;
  for (std::size_t j = 0; j < p_.size(); ++j) {
    const double sampled = (1.0 - mu) * p_[j] + mu / m;
    const double multiplier = rewards[j] != 0 ? beta : alpha;
    scratch_[j] = sampled * multiplier;
    z += scratch_[j];
  }

  if (z <= 0.0) {
    // Only reachable with alpha = 0 and an all-bad signal vector: the whole
    // population sits out.  Restart from uniform (empty-population rule).
    const double uniform = 1.0 / m;
    for (double& x : p_) x = uniform;
    ++degenerate_steps_;
  } else {
    for (std::size_t j = 0; j < p_.size(); ++j) p_[j] = scratch_[j] / z;
    // Φ^{t+1} = Φ^t · Σ_j ((1−μ)P_j + μ/m) · g_j = Φ^t · z  (since Σ P = 1).
    log_potential_ += std::log(z);
  }
  ++steps_;
}

}  // namespace sgl::core
