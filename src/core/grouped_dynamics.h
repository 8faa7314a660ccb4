#pragma once

/// \file grouped_dynamics.h
/// Exact aggregate simulation of *heterogeneous* populations.
///
/// finite_dynamics supports arbitrary per-agent adoption rules at O(N) per
/// step.  When the heterogeneity is a mixture of G rule groups (the case in
/// every study we know of — discerning/average/credulous types, conformist
/// fractions, etc.), the step law factors by group exactly as the
/// homogeneous case does by population:
///
///   stage 1, group g:  S_g ~ Multinomial(N_g, (1−μ)Q + μ/m)   (shared Q!)
///   stage 2:           D_{g,j} ~ Binomial(S_{g,j}, β_g^{R_j} α_g^{1−R_j})
///   popularity:        Q_j = Σ_g D_{g,j} / Σ_{g,j} D_{g,j}.
///
/// grouped_dynamics samples this directly: O(G·m) per step, independent of
/// N — the heterogeneous analogue of aggregate_dynamics, distribution-equal
/// to the agent-based engine with the same group assignment (tested).  Each
/// group's draw is aggregate_dynamics' sample_mixed_counts with the group's
/// own pair of stage-2 binomial tables.

#include <cstdint>
#include <span>
#include <vector>

#include "core/aggregate_dynamics.h"  // sample_mixed_counts
#include "core/dynamics_engine.h"
#include "core/finite_dynamics.h"  // adoption_rule
#include "core/params.h"
#include "support/rng.h"

namespace sgl::core {

/// One rule group: how many agents follow which (α, β).
struct rule_group {
  std::uint64_t size = 0;
  adoption_rule rule;
};

class grouped_dynamics final : public dynamics_engine {
 public:
  /// `params` supplies m and μ (its β/α are ignored — the groups carry the
  /// adoption rules).  Throws std::invalid_argument on invalid parameters,
  /// empty groups, zero total population, or rules with α > β etc.
  grouped_dynamics(const dynamics_params& params, std::vector<rule_group> groups);

  /// Back to the initial state (nobody committed, uniform popularity).
  void reset() override;

  /// reset() restores the constructed state exactly (the group mixture is
  /// fixed at construction), so the harness may reuse one instance.
  [[nodiscard]] bool reusable() const noexcept override { return true; }

  /// Advances one step given the realized signals R^{t+1} (size m).
  void step(std::span<const std::uint8_t> rewards, rng& gen) override;

  /// Q^t over options (uniform before the first step / after empty steps).
  [[nodiscard]] std::span<const double> popularity() const noexcept override {
    return popularity_;
  }

  /// D^t_{g,j}: adopters of option j within group g after the last step.
  [[nodiscard]] std::span<const std::uint64_t> group_adopters(std::size_t group) const;

  /// Σ_g D^t_{g,j}.
  [[nodiscard]] std::span<const std::uint64_t> adopter_counts() const noexcept override {
    return total_adopters_;
  }

  [[nodiscard]] std::uint64_t adopters() const noexcept { return committed_; }
  [[nodiscard]] std::uint64_t empty_steps() const noexcept override { return empty_steps_; }
  [[nodiscard]] std::uint64_t steps() const noexcept override { return steps_; }
  [[nodiscard]] std::size_t num_groups() const noexcept { return groups_.size(); }
  [[nodiscard]] std::uint64_t num_agents() const noexcept { return num_agents_; }
  [[nodiscard]] const dynamics_params& params() const noexcept { return params_; }

 private:
  dynamics_params params_;
  std::vector<rule_group> groups_;
  std::vector<adoption_binomials> binomials_;  // per group: its (α, β) tables
  std::uint64_t num_agents_ = 0;
  std::vector<double> popularity_;
  std::vector<double> stage_weights_;
  std::vector<std::uint64_t> stage_scratch_;
  std::vector<std::vector<std::uint64_t>> adopters_by_group_;
  std::vector<std::uint64_t> total_adopters_;
  std::uint64_t committed_ = 0;
  std::uint64_t empty_steps_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace sgl::core
