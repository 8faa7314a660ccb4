#include "core/aggregate_dynamics.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "support/distributions.h"

namespace sgl::core {

std::uint64_t sample_mixed_counts(rng& gen, std::uint64_t agents,
                                  std::span<const double> weights,
                                  std::span<const std::uint8_t> rewards,
                                  adoption_binomials& rule,
                                  std::span<std::uint64_t> stage,
                                  std::span<std::uint64_t> adopt) {
  sample_multinomial(gen, agents, weights, stage);
  std::uint64_t adopters = 0;
  for (std::size_t j = 0; j < stage.size(); ++j) {
    binomial_table& table = rewards[j] != 0 ? rule.beta : rule.alpha;
    adopt[j] = table.sample(gen, stage[j]);
    adopters += adopt[j];
  }
  return adopters;
}

aggregate_dynamics::aggregate_dynamics(const dynamics_params& params,
                                       std::uint64_t num_agents,
                                       std::span<const std::uint64_t> start_counts)
    : aggregate_dynamics{params, {rule_group{num_agents,
                                             {params.resolved_alpha(), params.beta}}}} {
  if (start_counts.empty()) return;
  if (start_counts.size() != params_.num_options) {
    throw std::invalid_argument{"aggregate_dynamics: start counts size mismatch"};
  }
  const std::uint64_t total = std::accumulate(start_counts.begin(), start_counts.end(),
                                              std::uint64_t{0});
  if (total > num_agents_) {
    throw std::invalid_argument{"aggregate_dynamics: more start adopters than agents"};
  }
  std::copy(start_counts.begin(), start_counts.end(), start_counts_.begin());
  if (total > 0) {
    for (std::size_t j = 0; j < start_popularity_.size(); ++j) {
      start_popularity_[j] = static_cast<double>(start_counts_[j]) / static_cast<double>(total);
    }
  }
  reset();
}

aggregate_dynamics::aggregate_dynamics(const dynamics_params& params,
                                       std::vector<rule_group> groups)
    : params_{params}, groups_{std::move(groups)} {
  params_.validate();
  if (groups_.empty()) throw std::invalid_argument{"aggregate_dynamics: no groups"};
  for (const auto& group : groups_) {
    if (group.size == 0) throw std::invalid_argument{"aggregate_dynamics: empty group"};
    if (!group.rule.valid()) {
      throw std::invalid_argument{"aggregate_dynamics: need 0 <= alpha <= beta <= 1"};
    }
    num_agents_ += group.size;
    binomials_.emplace_back(group.rule.alpha, group.rule.beta);
  }
  const std::size_t m = params_.num_options;
  start_counts_.assign(m, 0);
  start_popularity_.assign(m, 1.0 / static_cast<double>(m));
  popularity_.assign(m, 0.0);
  stage_weights_.assign(m, 0.0);
  stage_counts_.assign(m, 0);
  adopter_counts_.assign(m, 0);
  if (groups_.size() > 1) {
    group_stage_.assign(m, 0);
    group_adopters_.assign(groups_.size() * m, 0);
  }
  reset();
}

void aggregate_dynamics::reset() {
  std::copy(start_popularity_.begin(), start_popularity_.end(), popularity_.begin());
  std::copy(start_counts_.begin(), start_counts_.end(), adopter_counts_.begin());
  std::fill(stage_counts_.begin(), stage_counts_.end(), 0);
  std::fill(group_adopters_.begin(), group_adopters_.end(), 0);
  adopters_ = std::accumulate(start_counts_.begin(), start_counts_.end(), std::uint64_t{0});
  empty_steps_ = 0;
  steps_ = 0;
}

std::span<const std::uint64_t> aggregate_dynamics::group_adopters(std::size_t group) const {
  if (group >= groups_.size()) {
    throw std::out_of_range{"aggregate_dynamics::group_adopters: bad group"};
  }
  if (groups_.size() == 1) return adopter_counts_;
  const std::size_t m = params_.num_options;
  return std::span<const std::uint64_t>{group_adopters_}.subspan(group * m, m);
}

void aggregate_dynamics::step(std::span<const std::uint8_t> rewards, rng& gen) {
  const std::size_t m = params_.num_options;
  if (rewards.size() != m) {
    throw std::invalid_argument{"aggregate_dynamics::step: reward width mismatch"};
  }
  const double mu = params_.mu;
  for (std::size_t j = 0; j < m; ++j) {
    stage_weights_[j] = (1.0 - mu) * popularity_[j] + mu / static_cast<double>(m);
  }
  if (groups_.size() == 1) {
    adopters_ = sample_mixed_counts(gen, groups_[0].size, stage_weights_, rewards,
                                    binomials_[0], stage_counts_, adopter_counts_);
  } else {
    adopters_ = 0;
    std::fill(stage_counts_.begin(), stage_counts_.end(), 0);
    std::fill(adopter_counts_.begin(), adopter_counts_.end(), 0);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const std::span<std::uint64_t> row =
          std::span<std::uint64_t>{group_adopters_}.subspan(g * m, m);
      adopters_ += sample_mixed_counts(gen, groups_[g].size, stage_weights_, rewards,
                                       binomials_[g], group_stage_, row);
      for (std::size_t j = 0; j < m; ++j) {
        stage_counts_[j] += group_stage_[j];
        adopter_counts_[j] += row[j];
      }
    }
  }

  if (adopters_ == 0) {
    const double uniform = 1.0 / static_cast<double>(m);
    std::fill(popularity_.begin(), popularity_.end(), uniform);
    ++empty_steps_;
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      popularity_[j] = static_cast<double>(adopter_counts_[j]) /
                       static_cast<double>(adopters_);
    }
  }
  ++steps_;
}

}  // namespace sgl::core
