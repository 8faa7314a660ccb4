#include "core/grouped_dynamics.h"

#include <algorithm>
#include <stdexcept>

namespace sgl::core {

grouped_dynamics::grouped_dynamics(const dynamics_params& params,
                                   std::vector<rule_group> groups)
    : params_{params}, groups_{std::move(groups)} {
  params_.validate();
  if (groups_.empty()) throw std::invalid_argument{"grouped_dynamics: no groups"};
  for (const auto& group : groups_) {
    if (group.size == 0) throw std::invalid_argument{"grouped_dynamics: empty group"};
    if (!(group.rule.alpha >= 0.0 && group.rule.alpha <= group.rule.beta &&
          group.rule.beta <= 1.0)) {
      throw std::invalid_argument{"grouped_dynamics: need 0 <= alpha <= beta <= 1"};
    }
    num_agents_ += group.size;
    binomials_.emplace_back(group.rule.alpha, group.rule.beta);
  }
  popularity_.assign(params_.num_options, 0.0);
  stage_weights_.assign(params_.num_options, 0.0);
  stage_scratch_.assign(params_.num_options, 0);
  adopters_by_group_.assign(groups_.size(),
                            std::vector<std::uint64_t>(params_.num_options, 0));
  total_adopters_.assign(params_.num_options, 0);
  reset();
}

void grouped_dynamics::reset() {
  const double uniform = 1.0 / static_cast<double>(params_.num_options);
  std::fill(popularity_.begin(), popularity_.end(), uniform);
  for (auto& row : adopters_by_group_) std::fill(row.begin(), row.end(), 0);
  std::fill(total_adopters_.begin(), total_adopters_.end(), 0);
  committed_ = 0;
  empty_steps_ = 0;
  steps_ = 0;
}

std::span<const std::uint64_t> grouped_dynamics::group_adopters(std::size_t group) const {
  if (group >= groups_.size()) {
    throw std::out_of_range{"grouped_dynamics::group_adopters: bad group"};
  }
  return adopters_by_group_[group];
}

void grouped_dynamics::step(std::span<const std::uint8_t> rewards, rng& gen) {
  const std::size_t m = params_.num_options;
  if (rewards.size() != m) {
    throw std::invalid_argument{"grouped_dynamics::step: reward width mismatch"};
  }
  const double mu = params_.mu;
  for (std::size_t j = 0; j < m; ++j) {
    stage_weights_[j] = (1.0 - mu) * popularity_[j] + mu / static_cast<double>(m);
  }

  committed_ = 0;
  std::fill(total_adopters_.begin(), total_adopters_.end(), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    // Stage 1 restricted to this group's members (they sample the *global*
    // popularity — heterogeneity only affects adoption), stage 2 with the
    // group's rule.
    committed_ += sample_mixed_counts(gen, groups_[g].size, stage_weights_, rewards,
                                      binomials_[g], stage_scratch_,
                                      adopters_by_group_[g]);
    for (std::size_t j = 0; j < m; ++j) total_adopters_[j] += adopters_by_group_[g][j];
  }

  if (committed_ == 0) {
    const double uniform = 1.0 / static_cast<double>(m);
    std::fill(popularity_.begin(), popularity_.end(), uniform);
    ++empty_steps_;
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      popularity_[j] = static_cast<double>(total_adopters_[j]) /
                       static_cast<double>(committed_);
    }
  }
  ++steps_;
}

}  // namespace sgl::core
