#pragma once

/// \file params.h
/// The model parameters of the distributed learning dynamics (§2.1):
/// m options, exploration weight μ, and the adoption probabilities
/// (α on a bad signal, β on a good one).  The paper's exposition fixes
/// α = 1 − β; we keep α explicit so heterogeneous and ablation settings
/// (pure copying β = α = 1, deterministic adoption α = 0) stay in-model.

#include <cstddef>
#include <cstdint>

namespace sgl::core {

/// One adoption function f = (α, β): adopt the sampled option with
/// probability β on a good signal and α on a bad one (0 ≤ α ≤ β ≤ 1,
/// checked by the engines that take it).
struct adoption_rule {
  double alpha = 0.0;
  double beta = 1.0;
};

/// One rule group of a heterogeneous population: how many agents follow
/// which (α, β).
struct rule_group {
  std::uint64_t size = 0;
  adoption_rule rule;
};

struct dynamics_params {
  /// Number of options m (>= 1).
  std::size_t num_options = 2;

  /// Exploration weight μ ∈ [0,1]: the probability an individual samples an
  /// option uniformly at random instead of copying.  The theorems require
  /// μ > 0 (and 6μ ≤ δ²); the simulators accept the full range.
  double mu = 0.05;

  /// Adoption probability on a good signal, β ∈ [0,1].  The theorems
  /// require ½ < β ≤ e/(e+1).
  double beta = 0.6;

  /// Adoption probability on a bad signal, α ∈ [0, β].  A negative value
  /// (the default) means "use the paper's convention α = 1 − β".
  double alpha = -1.0;

  /// α after resolving the 1 − β convention.
  [[nodiscard]] double resolved_alpha() const noexcept {
    return alpha < 0.0 ? 1.0 - beta : alpha;
  }

  /// δ = ln(β / (1 − β)), the paper's single knob: regret bounds are 3δ
  /// (infinite population) and 6δ (finite).  Requires 0 < β < 1.
  [[nodiscard]] double delta() const;

  /// True iff the parameters satisfy every hypothesis of Theorems 4.3/4.4:
  /// ½ < β ≤ e/(e+1), α = 1 − β, 6μ ≤ δ², μ > 0.
  [[nodiscard]] bool satisfies_theorem_conditions() const noexcept;

  /// Throws std::invalid_argument on structurally invalid parameters
  /// (m = 0, μ ∉ [0,1], or not 0 ≤ α ≤ β ≤ 1).
  void validate() const;
};

/// Convenience: parameters that satisfy the theorem hypotheses for a given
/// β (sets μ = δ²/6, α = 1 − β).
[[nodiscard]] dynamics_params theorem_params(std::size_t num_options, double beta);

}  // namespace sgl::core
