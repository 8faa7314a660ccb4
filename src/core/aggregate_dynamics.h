#pragma once

/// \file aggregate_dynamics.h
/// The exact aggregate simulator of the fully mixed dynamics, for a
/// homogeneous population or a mixture of G rule groups.
///
/// Conditioned on the current popularity Q^t, the agent-level randomness of
/// a step factors exactly as
///
///   S^{t+1}_g          ~ Multinomial(N_g, p)   with p_j = (1−μ)Q^t_j + μ/m,
///   D^{t+1}_{g,j} | S, R ~ Binomial(S^{t+1}_{g,j}, β_g^{R_j} α_g^{1−R_j}),
///   Q^{t+1}_j          = Σ_g D_{g,j} / Σ_{g,j} D_{g,j},
///
/// which is the very decomposition the paper's Propositions 4.1/4.2 analyze
/// (G = 1 is the homogeneous case; every group samples the *shared*
/// popularity, so heterogeneity only enters at adoption).  Sampling those
/// laws directly advances the whole population in O(G·m) work per step,
/// independent of N, enabling the N = 10⁶ sweeps of Theorem 4.4's
/// experiment.  It is the one fully mixed count engine: scenario::make_engine
/// also builds it for an `agent_based` spec with no graph and no per-agent
/// rules.  For per-agent rules or network sampling use finite_dynamics —
/// with the same group assignment the two engines induce the *same*
/// distribution over trajectories (tested).
///
/// The draw itself is sample_mixed_counts below, the one sampler of this
/// law, called once per group.  Its m stage-2 binomials come from two
/// binomial_tables per rule (p = α and p = β never change), so a step
/// re-uses the sampler set-up of earlier steps' stage counts.

#include <cstdint>
#include <span>
#include <vector>

#include "core/dynamics_engine.h"
#include "core/params.h"
#include "support/distributions.h"
#include "support/rng.h"

namespace sgl::core {

/// The stage-2 samplers of one homogeneous adoption rule.
struct adoption_binomials {
  adoption_binomials(double alpha, double beta) noexcept : alpha{alpha}, beta{beta} {}
  binomial_table alpha;  // Binomial(S_j, α): option j's signal was bad
  binomial_table beta;   // Binomial(S_j, β): option j's signal was good
};

/// One fully mixed two-stage count draw (Propositions 4.1/4.2):
/// `stage` ← S ~ Multinomial(agents, weights), then
/// `adopt` ← D_j ~ Binomial(S_j, β^{R_j} α^{1−R_j}).  Returns Σ_j D_j.
/// All spans have size m; weights as sample_multinomial takes them.
std::uint64_t sample_mixed_counts(rng& gen, std::uint64_t agents,
                                  std::span<const double> weights,
                                  std::span<const std::uint8_t> rewards,
                                  adoption_binomials& rule,
                                  std::span<std::uint64_t> stage,
                                  std::span<std::uint64_t> adopt);

class aggregate_dynamics final : public dynamics_engine {
 public:
  /// Homogeneous population: the one group {num_agents, (resolved α, β)},
  /// starting from `start_counts` adopters per option (sum may be anything
  /// <= N; the popularity becomes counts/sum, uniform when the sum is 0) or,
  /// when empty, with nobody committed.  Throws std::invalid_argument on
  /// invalid parameters, num_agents == 0, or start counts of the wrong size
  /// or with more adopters than agents.
  aggregate_dynamics(const dynamics_params& params, std::uint64_t num_agents,
                     std::span<const std::uint64_t> start_counts = {});

  /// Rule-group mixture: `params` supplies m and μ (its β/α are ignored —
  /// the groups carry the adoption rules).  Starts with nobody committed.
  /// Throws std::invalid_argument on invalid parameters, no groups, an
  /// empty group, or a rule outside 0 ≤ α ≤ β ≤ 1.
  aggregate_dynamics(const dynamics_params& params, std::vector<rule_group> groups);

  /// Back to the constructed start.
  void reset() override;

  /// Advances one step given the realized signals R^{t+1} (size m).
  void step(std::span<const std::uint8_t> rewards, rng& gen) override;

  /// Q^t (uniform before the first step and after empty steps).
  [[nodiscard]] std::span<const double> popularity() const noexcept override {
    return popularity_;
  }

  /// D^t_j = Σ_g D^t_{g,j}.
  [[nodiscard]] std::span<const std::uint64_t> adopter_counts() const noexcept override {
    return adopter_counts_;
  }

  /// S^t_j = Σ_g S^t_{g,j} (stage-1 counts of the last step).
  [[nodiscard]] std::span<const std::uint64_t> stage_counts() const noexcept {
    return stage_counts_;
  }

  /// D^t_{g,j}: adopters of option j within group g after the last step.
  /// Throws std::out_of_range past the last group.
  [[nodiscard]] std::span<const std::uint64_t> group_adopters(std::size_t group) const;

  /// The rule groups, as constructed (one group for a homogeneous engine).
  [[nodiscard]] std::span<const rule_group> groups() const noexcept { return groups_; }

  [[nodiscard]] std::uint64_t adopters() const noexcept { return adopters_; }
  [[nodiscard]] std::uint64_t empty_steps() const noexcept override { return empty_steps_; }
  [[nodiscard]] std::uint64_t steps() const noexcept override { return steps_; }
  [[nodiscard]] std::uint64_t num_agents() const noexcept { return num_agents_; }
  [[nodiscard]] const dynamics_params& params() const noexcept { return params_; }

 private:
  dynamics_params params_;
  std::vector<rule_group> groups_;
  std::vector<adoption_binomials> binomials_;  // per group: its (α, β) tables
  std::uint64_t num_agents_ = 0;
  std::vector<std::uint64_t> start_counts_;  // D⁰ (all zero unless constructed from counts)
  std::vector<double> start_popularity_;     // Q⁰ read off start_counts_
  std::vector<double> popularity_;
  std::vector<double> stage_weights_;
  std::vector<std::uint64_t> stage_counts_;
  std::vector<std::uint64_t> adopter_counts_;
  // Mixtures only: one group's stage counts, and D_{g,j} row-major by group.
  std::vector<std::uint64_t> group_stage_;
  std::vector<std::uint64_t> group_adopters_;
  std::uint64_t adopters_ = 0;
  std::uint64_t empty_steps_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace sgl::core
