#include "support/gof.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/rng.h"

namespace sgl {
namespace {

// --- regularized gamma / chi-square CDF ----------------------------------------

TEST(regularized_gamma, known_values) {
  // P(1, x) = 1 - e^{-x}.
  EXPECT_NEAR(regularized_gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(regularized_gamma_p(1.0, 2.5), 1.0 - std::exp(-2.5), 1e-10);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(regularized_gamma_p(0.5, 1.0), std::erf(1.0), 1e-10);
  EXPECT_NEAR(regularized_gamma_p(0.5, 4.0), std::erf(2.0), 1e-10);
}

TEST(regularized_gamma, boundaries_and_errors) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(2.0, 1e3), 1.0, 1e-12);
  EXPECT_THROW((void)regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)regularized_gamma_p(1.0, -1.0), std::invalid_argument);
}

TEST(chi_square_cdf, known_quantiles) {
  // Median of chi2(k=2) is 2 ln 2; P(chi2_1 <= 3.841) ≈ 0.95.
  EXPECT_NEAR(chi_square_cdf(2.0 * std::log(2.0), 2.0), 0.5, 1e-10);
  EXPECT_NEAR(chi_square_cdf(3.841458821, 1.0), 0.95, 1e-6);
  EXPECT_NEAR(chi_square_cdf(18.30703805, 10.0), 0.95, 1e-6);
  EXPECT_DOUBLE_EQ(chi_square_cdf(-1.0, 3.0), 0.0);
}

// --- chi-square test -------------------------------------------------------------

TEST(chi_square_test, accepts_data_from_the_null) {
  rng gen{1};
  std::vector<std::uint64_t> counts(5, 0);
  const std::vector<double> expected{0.1, 0.2, 0.3, 0.25, 0.15};
  for (int i = 0; i < 20000; ++i) {
    double u = gen.next_double();
    std::size_t k = 0;
    while (k + 1 < expected.size() && u >= expected[k]) {
      u -= expected[k];
      ++k;
    }
    ++counts[k];
  }
  EXPECT_GT(chi_square_test(counts, expected).p_value, 1e-4);
}

TEST(chi_square_test, rejects_biased_data) {
  // Claim uniform, supply heavily skewed counts.
  const std::vector<std::uint64_t> counts{9000, 500, 250, 250};
  const std::vector<double> expected(4, 0.25);
  EXPECT_LT(chi_square_test(counts, expected).p_value, 1e-10);
}

TEST(chi_square_test, pools_sparse_bins) {
  // Tail bins have expected counts << 1; pooling must keep the test sane.
  const std::vector<std::uint64_t> counts{800, 150, 40, 8, 1, 1, 0, 0};
  const std::vector<double> expected{0.8, 0.15, 0.04, 0.008, 0.001, 0.0005,
                                     0.0003, 0.0002};
  const gof_result r = chi_square_test(counts, expected);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
  EXPECT_GT(r.p_value, 1e-6);  // data was drawn to match
}

TEST(chi_square_test, rejects_bad_input) {
  EXPECT_THROW((void)chi_square_test(std::vector<std::uint64_t>{1},
                                     std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)chi_square_test(std::vector<std::uint64_t>{1, 2},
                                     std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)chi_square_test(std::vector<std::uint64_t>{0, 0},
                                     std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
}

// --- KS test ---------------------------------------------------------------------

TEST(ks_test, accepts_uniform_sample) {
  rng gen{2};
  std::vector<double> xs(4000);
  for (double& x : xs) x = gen.next_double();
  std::sort(xs.begin(), xs.end());
  // CDF of Uniform(0,1) at the data is the data itself.
  EXPECT_GT(ks_test_from_cdf(xs).p_value, 1e-4);
}

TEST(ks_test, rejects_shifted_sample) {
  rng gen{3};
  std::vector<double> xs(4000);
  for (double& x : xs) x = 0.5 * gen.next_double();  // actually Uniform(0, 0.5)
  std::sort(xs.begin(), xs.end());
  EXPECT_LT(ks_test_from_cdf(xs).p_value, 1e-10);
}

TEST(ks_test, statistic_is_the_sup_distance) {
  // Two points with CDF values 0 and 1: D = max(|0 - 0|, |0.5 - 0|, |1 - 0.5|, ...)
  const std::vector<double> cdf{0.0, 1.0};
  const gof_result r = ks_test_from_cdf(cdf);
  EXPECT_NEAR(r.statistic, 0.5, 1e-12);
}

TEST(ks_test, rejects_empty) {
  EXPECT_THROW((void)ks_test_from_cdf(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace sgl
