#include "support/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/rng.h"

namespace sgl {
namespace {

// --- running_stats ---------------------------------------------------------------

TEST(running_stats, matches_naive_computation) {
  const std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  running_stats s;
  for (const double x : xs) s.add(x);

  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_NEAR(s.sum(), mean * static_cast<double>(xs.size()), 1e-12);
}

TEST(running_stats, empty_and_singleton) {
  running_stats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderror(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(running_stats, merge_equals_single_pass) {
  rng gen{1};
  running_stats whole;
  running_stats left;
  running_stats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = gen.next_double() * 10.0 - 5.0;
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(running_stats, merge_with_empty_is_identity) {
  running_stats s;
  s.add(1.0);
  s.add(2.0);
  running_stats empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 2U);
  EXPECT_NEAR(s.mean(), 1.5, 1e-12);

  running_stats other;
  other.merge(s);
  EXPECT_EQ(other.count(), 2U);
  EXPECT_NEAR(other.mean(), 1.5, 1e-12);
}

TEST(running_stats, numerically_stable_around_large_offset) {
  running_stats s;
  constexpr double offset = 1e9;
  for (int i = 0; i < 1000; ++i) s.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(s.mean(), offset, 1e-3);
  EXPECT_NEAR(s.variance(), 1.001, 0.01);  // ±1 alternating
}

// --- confidence intervals -----------------------------------------------------

TEST(confidence_interval, width_shrinks_with_samples) {
  rng gen{2};
  running_stats small;
  running_stats large;
  for (int i = 0; i < 100; ++i) small.add(gen.next_double());
  for (int i = 0; i < 10000; ++i) large.add(gen.next_double());
  EXPECT_GT(confidence_interval(small).half_width,
            confidence_interval(large).half_width);
}

TEST(confidence_interval, rejects_bad_confidence) {
  running_stats s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_THROW((void)confidence_interval(s, 0.0), std::invalid_argument);
  EXPECT_THROW((void)confidence_interval(s, 1.0), std::invalid_argument);
}

TEST(confidence_interval, coverage_is_near_nominal) {
  // 500 experiments estimating the mean of Uniform(0,1); the 95% CI should
  // cover 0.5 roughly 95% of the time.
  rng gen{3};
  int covered = 0;
  constexpr int experiments = 500;
  for (int e = 0; e < experiments; ++e) {
    running_stats s;
    for (int i = 0; i < 400; ++i) s.add(gen.next_double());
    const mean_ci ci = confidence_interval(s);
    if (ci.lo() <= 0.5 && 0.5 <= ci.hi()) ++covered;
  }
  EXPECT_GE(covered, 440);  // ~88%+ allows Monte-Carlo slack
  EXPECT_LE(covered, experiments);
}

// --- normal quantile / cdf -------------------------------------------------------

TEST(normal_quantile, known_values) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829304, 1e-6);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(normal_quantile(1e-6), -4.753424, 1e-4);
}

TEST(normal_quantile, inverts_cdf) {
  for (const double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8);
  }
}

TEST(normal_quantile, rejects_boundary) {
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(-0.5), std::invalid_argument);
}

TEST(normal_cdf, symmetry_and_known_values) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0) + normal_cdf(-1.0), 1.0, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
}

// --- quantile -----------------------------------------------------------------

TEST(quantile, interpolates_type7) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_NEAR(quantile(xs, 1.0 / 3.0), 2.0, 1e-12);
}

TEST(quantile, unsorted_input_is_fine) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(quantile, rejects_bad_input) {
  EXPECT_THROW((void)quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, 1.5), std::invalid_argument);
}

// --- series_stats --------------------------------------------------------------

TEST(series_stats, per_index_means) {
  series_stats s{3};
  s.add_series(std::vector<double>{1.0, 2.0, 3.0});
  s.add_series(std::vector<double>{3.0, 4.0, 5.0});
  EXPECT_EQ(s.replications(), 2U);
  EXPECT_NEAR(s.mean(0), 2.0, 1e-12);
  EXPECT_NEAR(s.mean(1), 3.0, 1e-12);
  EXPECT_NEAR(s.mean(2), 4.0, 1e-12);
}

TEST(series_stats, merge_matches_combined) {
  series_stats a{2};
  series_stats b{2};
  a.add_series(std::vector<double>{1.0, 10.0});
  b.add_series(std::vector<double>{3.0, 30.0});
  b.add_series(std::vector<double>{5.0, 50.0});
  a.merge(b);
  EXPECT_EQ(a.replications(), 3U);
  EXPECT_NEAR(a.mean(0), 3.0, 1e-12);
  EXPECT_NEAR(a.mean(1), 30.0, 1e-12);
}

TEST(series_stats, rejects_mismatches) {
  series_stats s{2};
  EXPECT_THROW(s.add_series(std::vector<double>{1.0}), std::invalid_argument);
  series_stats other{3};
  EXPECT_THROW(s.merge(other), std::invalid_argument);
  EXPECT_THROW(series_stats{0}, std::invalid_argument);
}

}  // namespace
}  // namespace sgl
