#pragma once

/// \file distributions.h
/// Exact samplers for the distributions the simulators need, implemented
/// from scratch for cross-platform reproducibility (see rng.h).
///
/// The aggregate finite-population simulator advances a whole population in
/// O(m) per step by sampling one multinomial (stage 1: who considers which
/// option) and m binomials (stage 2: who commits).  Binomial sampling
/// therefore has to be exact *and* O(1)-ish for n up to 10^7: we use
/// inversion for small n·p and Hormann's BTRS transformed-rejection
/// algorithm for the rest.
///
/// There is one implementation of each: a set-up function (the BTRS
/// constants, or the inversion pmf recurrence) and a draw function.
/// sample_binomial runs them once per call; binomial_table keeps the set-up
/// per n for a fixed p, which is what the stage-2 draws need (p ∈ {α, β}
/// never changes within an engine).  Both return the same value and consume
/// the generator word for word the same — the floating-point expressions
/// are the same source, built with -ffp-contract=off (CMakeLists.txt) so
/// no build fuses them differently.

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.h"

namespace sgl {

/// Standard normal draw (Marsaglia polar method; the spare value is
/// discarded so the sampler is stateless).
[[nodiscard]] double sample_standard_normal(rng& gen) noexcept;

/// Normal(mean, sd) draw.  Precondition: sd >= 0.
[[nodiscard]] double sample_normal(rng& gen, double mean, double sd) noexcept;

/// Exponential(rate) draw by inversion.  Precondition: rate > 0.
[[nodiscard]] double sample_exponential(rng& gen, double rate) noexcept;

/// Binomial(n, p) draw, exact for all 0 <= p <= 1 and n >= 0.
/// Uses inversion when n·min(p,1-p) < 10 and BTRS otherwise.
[[nodiscard]] std::uint64_t sample_binomial(rng& gen, std::uint64_t n, double p) noexcept;

namespace detail {

/// BTRS set-up for one (n, p ≤ 0.5): the constants of the acceptance fast
/// path, then those only a squeeze failure needs, filled on first need.
struct btrs_setup {
  double nd = 0.0, spq = 0.0, b = 0.0, a = 0.0, c = 0.0, v_r = 0.0;
  bool tail_ready = false;
  double r = 0.0, alpha = 0.0, m = 0.0, upper_m = 0.0, fc_m = 0.0, fc_nm = 0.0;
};

/// Inversion set-up for one (n, p ≤ 0.5): the pmf ratio recurrence
/// pmf(k) = pmf(k−1)·(a/k − s), of which the first `rungs` values are kept.
struct inversion_setup {
  double s = 0.0, a = 0.0;
  std::uint32_t rungs = 0;
};

}  // namespace detail

/// Binomial(n, p) draws for one fixed p, with the per-n set-up cached.
///
/// sample(gen, n) returns exactly sample_binomial(gen, n, p) and consumes
/// `gen` word for word the same.  The cache is direct-mapped on n (`slots`
/// entries): a BTRS entry keeps its constants, an inversion entry its pmf
/// ladder, extended only as far as a scan has reached.  A miss costs no
/// more than a sample_binomial call, so widely spread n (N = 10^6 stage
/// counts) lose nothing; the table is allocated on the first draw, so an
/// engine that never samples pays nothing.
class binomial_table {
 public:
  explicit binomial_table(double p) noexcept;

  /// A Binomial(n, p) draw.  Precondition as sample_binomial's.
  [[nodiscard]] std::uint64_t sample(rng& gen, std::uint64_t n);

  /// Cache entries; n values `slots` apart share one.
  static constexpr std::size_t slots = 64;

 private:
  /// Cached pmf values per inversion entry; a scan past them continues
  /// the recurrence uncached.
  static constexpr std::size_t ladder = 32;

  struct entry {
    std::uint64_t n = 0;  // the cached n; 0 = empty (n = 0 is never looked up)
    bool btrs = false;    // n·min(p, 1 − p) >= 10, else inversion
    detail::btrs_setup btrs_setup;
    detail::inversion_setup inversion_setup;
    double pmf[ladder] = {};
  };

  double p_;
  double low_p_;  // min(p, 1 − p), exactly as sample_binomial folds it
  bool folded_;   // p > 0.5: draw with 1 − p and return n − k
  std::vector<entry> entries_;
};

/// Multinomial(n, weights): fills `out[j]` with the number of the n trials
/// that landed in category j.  `weights` need not be normalized but must be
/// non-negative with a positive sum.  out.size() must equal weights.size().
void sample_multinomial(rng& gen, std::uint64_t n, std::span<const double> weights,
                        std::span<std::uint64_t> out);

/// Categorical draw proportional to `weights` (linear scan; use
/// discrete_sampler for repeated draws from the same weights).
/// Precondition: weights non-negative with positive sum.
[[nodiscard]] std::size_t sample_categorical(rng& gen, std::span<const double> weights) noexcept;

/// Walker/Vose alias method: O(m) construction, O(1) per draw from a fixed
/// discrete distribution.  Used for popularity-proportional sampling in the
/// agent-based simulator, where every agent draws from the same Q^t.
class discrete_sampler {
 public:
  /// An empty sampler; rebuild() before the first draw.
  discrete_sampler() = default;

  /// Builds the alias table for a distribution proportional to `weights`.
  /// Throws std::invalid_argument on empty, negative, or all-zero weights.
  explicit discrete_sampler(std::span<const double> weights) { rebuild(weights); }

  /// Rebuilds the table for new weights, reusing all internal storage —
  /// allocation-free when the size is unchanged (the simulators rebuild
  /// once per step from the evolving popularity).  Same validation as the
  /// constructor.
  void rebuild(std::span<const double> weights);

  /// Draws one index in [0, size()).  Precondition: size() > 0.
  [[nodiscard]] std::size_t sample(rng& gen) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return probability_.size(); }

  /// The normalized probability of index i (for tests).
  [[nodiscard]] double probability(std::size_t i) const noexcept { return normalized_[i]; }

 private:
  std::vector<double> probability_;   // acceptance threshold per column
  std::vector<std::uint32_t> alias_;  // alias index per column
  std::vector<double> normalized_;    // the input distribution, normalized
  std::vector<double> scaled_;        // rebuild scratch: m * p_i
  std::vector<std::uint32_t> small_;  // rebuild worklists
  std::vector<std::uint32_t> large_;
};

}  // namespace sgl
