#pragma once

/// \file reward_model.h
/// Reward environments: who generates the quality signals R^t_j.
///
/// The paper's base model (§2.1) draws R^t_j ~ Bernoulli(η_j) independently
/// across options and time.  Its examples and future-work section motivate
/// richer generators, all provided here behind one interface:
///   * bernoulli_rewards    — the base model;
///   * exclusive_rewards    — exactly one option good per step (the
///                            Ellison–Fudenberg reduction, §2.1 ex. 2, where
///                            R^t_1 = 1{r^t_1 > r^t_2});
///   * switching_rewards    — the identity of the best option rotates every
///                            L steps (§6: "options represent stocks");
///   * drifting_rewards     — qualities interpolate linearly over time (§6);
///   * schedule_rewards     — a fixed, deterministic signal table, used by
///                            tests and adversarial probes.
///
/// Signals are *shared*: every individual looking at option j at step t sees
/// the same R^t_j, exactly as in the paper.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/rng.h"

namespace sgl::env {

/// Abstract generator of the per-step signal vector R^t.
class reward_model {
 public:
  virtual ~reward_model() = default;

  /// Number of options m.
  [[nodiscard]] virtual std::size_t num_options() const noexcept = 0;

  /// Draws R^t into `out` (size must be num_options()).  `t` is the 1-based
  /// step index of the signals being produced; stationary models ignore it.
  virtual void sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) = 0;

  /// η_j(t): the probability that option j is good at step t.
  [[nodiscard]] virtual double mean(std::uint64_t t, std::size_t option) const = 0;

  /// Index of a best option at step t (ties broken towards lower index).
  [[nodiscard]] std::size_t best_option(std::uint64_t t) const;

  /// η of the best option at step t.
  [[nodiscard]] double best_mean(std::uint64_t t) const;

  /// True if mean(t, j) is the same for every t (the theorems' setting).
  [[nodiscard]] virtual bool is_stationary() const noexcept { return true; }

  /// Restores any cross-replication mutable state to its initial value, so
  /// the harness (core/experiment.h) may reuse one model across
  /// replications: sample()/mean() depend only on (t, gen) and on state
  /// reset() restores.  Every built-in model is immutable after
  /// construction, so the default is a no-op.
  virtual void reset() {}

  /// Always true (perfbench only; drop with the next [benchmark] PR).
  [[nodiscard]] bool reusable() const noexcept { return true; }
};

/// The paper's base model: independent R^t_j ~ Bernoulli(η_j).
class bernoulli_rewards final : public reward_model {
 public:
  /// Throws field_error naming "etas" unless every η_j is in [0, 1] and the
  /// list is non-empty.  The qualities need not be sorted.
  explicit bernoulli_rewards(std::vector<double> etas);

  [[nodiscard]] std::size_t num_options() const noexcept override { return etas_.size(); }
  void sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) override;
  [[nodiscard]] double mean(std::uint64_t t, std::size_t option) const override;

 private:
  std::vector<double> etas_;
};

/// Exactly one option is good per step: option j with probability p_j,
/// Σ p_j = 1.  This realizes the correlation structure of §2.1 example 2
/// (footnote 3: "exactly one of them is 1 in every time step").
class exclusive_rewards final : public reward_model {
 public:
  /// `win_probabilities` must be a probability vector (each in [0,1], sum 1
  /// to within 1e-9); throws field_error naming "etas" otherwise.
  explicit exclusive_rewards(std::vector<double> win_probabilities);

  [[nodiscard]] std::size_t num_options() const noexcept override { return p_.size(); }
  void sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) override;
  [[nodiscard]] double mean(std::uint64_t t, std::size_t option) const override;

 private:
  std::vector<double> p_;
};

/// Qualities cyclically rotate every `period` steps: at step t the quality
/// of option j is base[(j + t/period) mod m].  With a sorted base vector the
/// best option hops one index every period — the "stocks" setting of §6.
class switching_rewards final : public reward_model {
 public:
  /// Throws field_error naming "etas" (as bernoulli_rewards) or "period"
  /// (must be positive).
  switching_rewards(std::vector<double> base_etas, std::uint64_t period);

  [[nodiscard]] std::size_t num_options() const noexcept override { return base_.size(); }
  void sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) override;
  [[nodiscard]] double mean(std::uint64_t t, std::size_t option) const override;
  [[nodiscard]] bool is_stationary() const noexcept override { return false; }

 private:
  std::vector<double> base_;
  std::uint64_t period_;
};

/// Qualities drift linearly from `start` at t=1 to `end` at t=horizon and
/// stay at `end` afterwards.
class drifting_rewards final : public reward_model {
 public:
  /// Throws field_error naming "etas", "end_etas" (as bernoulli_rewards,
  /// and the same length as start) or "horizon" (must be >= 2).
  drifting_rewards(std::vector<double> start_etas, std::vector<double> end_etas,
                   std::uint64_t horizon);

  [[nodiscard]] std::size_t num_options() const noexcept override { return start_.size(); }
  void sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) override;
  [[nodiscard]] double mean(std::uint64_t t, std::size_t option) const override;
  [[nodiscard]] bool is_stationary() const noexcept override { return false; }

 private:
  std::vector<double> start_;
  std::vector<double> end_;
  std::uint64_t horizon_;
};

/// A fixed table of signals: row t-1 holds R^t.  Steps beyond the table wrap
/// around.  Deterministic; the workhorse of the unit tests.
class schedule_rewards final : public reward_model {
 public:
  /// `table[r][j]` in {0,1}; all rows must have equal, positive width.
  explicit schedule_rewards(std::vector<std::vector<std::uint8_t>> table);

  [[nodiscard]] std::size_t num_options() const noexcept override { return width_; }
  void sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) override;
  /// The long-run frequency of 1s for the option (the empirical η).
  [[nodiscard]] double mean(std::uint64_t t, std::size_t option) const override;
  [[nodiscard]] bool is_stationary() const noexcept override { return false; }

 private:
  std::vector<std::vector<std::uint8_t>> table_;
  std::size_t width_;
};

/// Convenience: η = {eta_best, eta_rest, eta_rest, ...} with m options —
/// the canonical instantiation used throughout the paper's examples
/// (η₁ > ½ = η₂ = … = η_m in the Krafft et al. model).
[[nodiscard]] std::vector<double> two_level_etas(std::size_t num_options, double eta_best,
                                                 double eta_rest);

}  // namespace sgl::env
