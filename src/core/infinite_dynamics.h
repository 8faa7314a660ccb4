#pragma once

/// \file infinite_dynamics.h
/// The infinite-population distributed learning dynamics — equivalently the
/// stochastic multiplicative-weights process of §4.2, eq. (1):
///
///   W^{t+1}_j = ((1−μ) W^t_j + (μ/m) Σ_k W^t_k) · β^{R^{t+1}_j} α^{1−R^{t+1}_j},
///
/// with P^t_j = W^t_j / Σ_k W^t_k the fraction of the (infinite) population
/// on option j.  We evolve the *normalized* vector P directly — the update
/// for P is scale-free — and carry ln Φ^t (Φ^t = Σ_j W^t_j with W⁰_j = 1)
/// separately, since the potential is what the proof of Theorem 4.3 tracks.
/// This representation cannot underflow at any horizon.

#include <cstdint>
#include <span>
#include <vector>

#include "core/dynamics_engine.h"
#include "core/params.h"

namespace sgl::core {

class infinite_dynamics final : public dynamics_engine {
 public:
  /// Starts from `start` (Theorem 4.6's nonuniform start), or from the
  /// uniform distribution (the paper's P⁰) when `start` is empty.  A
  /// non-empty start must be a probability vector of size m (validated,
  /// then normalized and stored).  Throws std::invalid_argument on invalid
  /// parameters or an invalid start.
  explicit infinite_dynamics(const dynamics_params& params, std::span<const double> start = {});

  /// Back to the constructed start; steps() and log_potential() reset too.
  void reset() override;

  /// Advances one step given the realized signal vector R^{t+1}
  /// (size m, entries 0/1).  The process is deterministic given the signals.
  void step(std::span<const std::uint8_t> rewards);

  /// dynamics_engine form; the generator is unused (deterministic update).
  void step(std::span<const std::uint8_t> rewards, rng& /*gen*/) override { step(rewards); }

  /// P^t.
  [[nodiscard]] std::span<const double> distribution() const noexcept { return p_; }

  /// P^t under the engine interface (the mean-field popularity).
  [[nodiscard]] std::span<const double> popularity() const noexcept override { return p_; }

  /// No individuals to count in the infinite population: always empty.
  [[nodiscard]] std::span<const std::uint64_t> adopter_counts() const noexcept override {
    return {};
  }

  /// Engine-interface alias for degenerate_steps(): the α = 0 annihilation
  /// steps are exactly the steps on which "nobody" adopted.
  [[nodiscard]] std::uint64_t empty_steps() const noexcept override {
    return degenerate_steps_;
  }

  /// ln Φ^t where Φ⁰ = m (uniform unit weights).  If a degenerate step ever
  /// occurred (see degenerate_steps()), the potential is no longer the
  /// paper's — that can only happen outside the theorem regime (α = 0).
  [[nodiscard]] double log_potential() const noexcept { return log_potential_; }

  /// Steps taken since the last reset.
  [[nodiscard]] std::uint64_t steps() const noexcept override { return steps_; }

  /// Number of steps where the update annihilated all mass (possible only
  /// when α = 0 and every signal was bad); the process restarts from
  /// uniform on such steps, mirroring the finite empty-population rule.
  [[nodiscard]] std::uint64_t degenerate_steps() const noexcept { return degenerate_steps_; }

  [[nodiscard]] const dynamics_params& params() const noexcept { return params_; }

 private:
  dynamics_params params_;
  std::vector<double> start_;  // P⁰, normalized
  std::vector<double> p_;
  std::vector<double> scratch_;
  double log_potential_ = 0.0;
  std::uint64_t steps_ = 0;
  std::uint64_t degenerate_steps_ = 0;
};

}  // namespace sgl::core
