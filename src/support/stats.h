#pragma once

/// \file stats.h
/// Streaming statistics used by the experiment harnesses: every regret /
/// trajectory quantity in the paper is an expectation, which we estimate
/// over independent replications and report with confidence intervals.

#include <cstddef>
#include <cstdint>
#include <span>

namespace sgl {

/// Numerically stable streaming moments (Welford), mergeable across
/// parallel shards (Chan et al. pairwise update).
class running_stats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator into this one (order-independent up to
  /// floating-point rounding).
  void merge(const running_stats& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }
  /// Unbiased sample variance; 0 when count < 2.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 when count < 2.
  [[nodiscard]] double stderror() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A mean with a symmetric normal-approximation confidence interval.
struct mean_ci {
  double mean = 0.0;
  double half_width = 0.0;
  [[nodiscard]] double lo() const noexcept { return mean - half_width; }
  [[nodiscard]] double hi() const noexcept { return mean + half_width; }
};

/// Two-sided normal CI at `confidence` (e.g. 0.95) for the mean of `s`.
[[nodiscard]] mean_ci confidence_interval(const running_stats& s, double confidence = 0.95);

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |error| < 1.2e-9).  Precondition: 0 < p < 1.
[[nodiscard]] double normal_quantile(double p);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double x) noexcept;

/// Type-7 (linear interpolation) sample quantile, q in [0, 1].
/// Copies and sorts; intended for end-of-run reporting, not hot loops.
[[nodiscard]] double quantile(std::span<const double> values, double q);

}  // namespace sgl
