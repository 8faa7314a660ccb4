#pragma once

/// \file ef_model.h
/// The Ellison–Fudenberg word-of-mouth instantiation (§2.1, example 2).
///
/// Two options with continuous rewards r^t_j ~ Normal(mean_j, sd_j), plus
/// i.i.d. player-specific shocks ε ~ Normal(0, shock_sd).  A player who
/// sampled a companion compares the shocked rewards of the two options and
/// adopts the sampled option iff the comparison favours it.
///
/// The paper converts this to the binary framework:
///   R^t_1 = 1{r^t_1 > r^t_2},  η₁ = p = P[r₁ > r₂],  η₂ = 1 − p,
///   β = P[ξ > r₂ − r₁ | r₁ > r₂],   α = P[ξ > r₂ − r₁ | r₂ > r₁],
/// where ξ = ε_{i1} + ε_{i'1} − ε_{i2} − ε_{i'2} ~ Normal(0, 4·shock_sd²).
/// We compute p in closed form and (α, β) by numerically integrating the
/// conditional orthant probability.  The reduced (η, α, β) are the literals
/// of claims/ex_word_of_mouth.scn, and integration_test's
/// ef_direct_and_reduced_models_agree pits the *direct* shock-level
/// simulation against the *reduced* binary dynamics.

#include <cstdint>
#include <vector>

#include "support/rng.h"

namespace sgl::env {

/// Parameters of the Ellison–Fudenberg environment.
struct ef_params {
  double mean1 = 0.6;    ///< mean reward of option 1 (the better one)
  double mean2 = 0.4;    ///< mean reward of option 2
  double reward_sd = 0.3;  ///< std-dev of each option's reward draw
  double shock_sd = 0.2;   ///< std-dev of each player-specific shock ε

  /// Throws std::invalid_argument on non-positive deviations.
  void validate() const;
};

/// Closed form p = P[r₁ > r₂] = Φ((mean1 − mean2) / √(2)·reward_sd).
[[nodiscard]] double ef_win_probability(const ef_params& params);

/// The reduced adoption parameters of the paper's conversion.
struct ef_reduction {
  double eta1 = 0.0;   ///< p
  double eta2 = 0.0;   ///< 1 − p
  double alpha = 0.0;  ///< adopt probability on a bad signal
  double beta = 0.0;   ///< adopt probability on a good signal
};

/// Computes (η₁, η₂, α, β) by adaptive Simpson integration of
/// E[Φ(D / (2·shock_sd)) | ±D > 0] where D = r₁ − r₂.
[[nodiscard]] ef_reduction reduce_ef_model(const ef_params& params);

/// Direct agent-based simulation of the EF dynamics embedded in the paper's
/// two-stage framework: each player samples an option proportional to
/// popularity (with exploration weight mu), then adopts the sampled option
/// with probability Φ((r_sampled − r_other)/(2·shock_sd)) — i.e. the
/// probability that the four-shock comparison favours it — and sits out
/// otherwise.  Conditioned on the sign of r₁−r₂ this adoption probability
/// has expectation exactly β (resp. α), which is what the reduction asserts.
class ef_direct_dynamics {
 public:
  /// Population of `num_agents`; `mu` as in the base model (EF itself has
  /// mu = 0 but exploration is allowed).
  ef_direct_dynamics(const ef_params& params, std::size_t num_agents, double mu);

  /// Advances one step; draws (r₁, r₂) internally from `reward_gen` so a
  /// coupled reduced run can share the same reward stream via the same
  /// generator state, and uses `population_gen` for the per-agent choices.
  void step(rng& reward_gen, rng& population_gen);

  /// Popularity vector Q^t (size 2; uniform before the first step or when
  /// everybody sat out).
  [[nodiscard]] const std::vector<double>& popularity() const noexcept { return popularity_; }

  /// Number of agents committed to an option after the last step.
  [[nodiscard]] std::uint64_t adopters() const noexcept { return adopters_; }

  /// Most recent reward draw (r₁, r₂) — exposed so coupled runs can reuse it.
  [[nodiscard]] double last_reward(std::size_t option) const { return last_rewards_.at(option); }

  /// Steps taken so far.
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

 private:
  ef_params params_;
  std::size_t num_agents_;
  double mu_;
  std::vector<double> popularity_;
  std::vector<double> last_rewards_;
  std::uint64_t adopters_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace sgl::env
