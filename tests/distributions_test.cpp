#include "support/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

#include "support/gof.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl {
namespace {

constexpr double k_reject_level = 1e-4;  // statistical tests use fixed seeds

// --- normal -------------------------------------------------------------------

TEST(normal_sampler, moments) {
  rng gen{1};
  running_stats s;
  for (int i = 0; i < 200000; ++i) s.add(sample_standard_normal(gen));
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(normal_sampler, ks_against_normal_cdf) {
  rng gen{2};
  std::vector<double> xs(5000);
  for (double& x : xs) x = sample_standard_normal(gen);
  std::sort(xs.begin(), xs.end());
  std::vector<double> cdf(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) cdf[i] = normal_cdf(xs[i]);
  EXPECT_GT(ks_test_from_cdf(cdf).p_value, k_reject_level);
}

TEST(normal_sampler, location_and_scale) {
  rng gen{3};
  running_stats s;
  for (int i = 0; i < 100000; ++i) s.add(sample_normal(gen, 5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

// --- exponential ---------------------------------------------------------------

TEST(exponential_sampler, moments_and_positivity) {
  rng gen{4};
  running_stats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = sample_exponential(gen, 2.0);
    EXPECT_GE(x, 0.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(exponential_sampler, ks_fit) {
  rng gen{5};
  constexpr double rate = 0.7;
  std::vector<double> xs(5000);
  for (double& x : xs) x = sample_exponential(gen, rate);
  std::sort(xs.begin(), xs.end());
  std::vector<double> cdf(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) cdf[i] = 1.0 - std::exp(-rate * xs[i]);
  EXPECT_GT(ks_test_from_cdf(cdf).p_value, k_reject_level);
}

// --- binomial ------------------------------------------------------------------

struct binomial_case {
  std::uint64_t n;
  double p;
};

class binomial_pmf_test : public ::testing::TestWithParam<binomial_case> {};

TEST_P(binomial_pmf_test, chi_square_against_exact_pmf) {
  const auto [n, p] = GetParam();
  rng gen{static_cast<std::uint64_t>(n * 7919) + 11};
  std::vector<std::uint64_t> counts(n + 1, 0);
  constexpr int draws = 40000;
  for (int i = 0; i < draws; ++i) ++counts[sample_binomial(gen, n, p)];

  std::vector<double> expected(n + 1, 0.0);
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double log_pmf = std::lgamma(static_cast<double>(n + 1)) -
                           std::lgamma(static_cast<double>(k + 1)) -
                           std::lgamma(static_cast<double>(n - k + 1)) +
                           static_cast<double>(k) * std::log(p) +
                           static_cast<double>(n - k) * std::log1p(-p);
    expected[k] = std::exp(log_pmf);
  }
  EXPECT_GT(chi_square_test(counts, expected).p_value, k_reject_level)
      << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    regimes, binomial_pmf_test,
    ::testing::Values(binomial_case{1, 0.5},      // Bernoulli
                      binomial_case{5, 0.2},      // inversion, tiny
                      binomial_case{20, 0.4},     // inversion, moderate np
                      binomial_case{40, 0.04},    // inversion, skewed
                      binomial_case{60, 0.5},     // BTRS
                      binomial_case{100, 0.2},    // BTRS
                      binomial_case{100, 0.8},    // BTRS via symmetry
                      binomial_case{250, 0.33},   // BTRS larger
                      binomial_case{50, 0.97}));  // symmetry + inversion

TEST(binomial_sampler, edge_cases) {
  rng gen{8};
  EXPECT_EQ(sample_binomial(gen, 0, 0.5), 0U);
  EXPECT_EQ(sample_binomial(gen, 100, 0.0), 0U);
  EXPECT_EQ(sample_binomial(gen, 100, 1.0), 100U);
  EXPECT_EQ(sample_binomial(gen, 100, -0.5), 0U);
  EXPECT_EQ(sample_binomial(gen, 100, 1.5), 100U);
}

TEST(binomial_sampler, large_n_moments) {
  rng gen{9};
  constexpr std::uint64_t n = 1000000;
  constexpr double p = 0.37;
  running_stats s;
  for (int i = 0; i < 3000; ++i) s.add(static_cast<double>(sample_binomial(gen, n, p)));
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(s.mean(), nd * p, 5.0 * std::sqrt(nd * p * (1 - p) / 3000.0));
  EXPECT_NEAR(s.stddev(), std::sqrt(nd * p * (1 - p)), 20.0);
}

TEST(binomial_sampler, never_exceeds_n) {
  rng gen{10};
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LE(sample_binomial(gen, 17, 0.9), 17U);
  }
}

// --- binomial_table ---------------------------------------------------------------

// The binomial sampler as it stood before the set-up/draw split: inversion
// and BTRS each recomputing every constant per call.  Both production
// entry points must still draw exactly this, word for word.
namespace reference {

double stirling_correction(double k) {
  static constexpr double table[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10.0) return table[static_cast<int>(k)];
  const double kp1_sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1_sq) / kp1_sq) / (k + 1.0);
}

std::uint64_t binomial(rng& gen, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial(gen, n, 1.0 - p);
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  if (nd * p < 10.0) {
    const double s = p / q;
    const double a = static_cast<double>(n + 1) * s;
    double r = std::pow(q, nd);
    double u = gen.next_double();
    std::uint64_t k = 0;
    while (u > r && k < n) {
      u -= r;
      ++k;
      r *= (a / static_cast<double>(k)) - s;
    }
    return k;
  }
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double m = std::floor((nd + 1.0) * p);
  for (;;) {
    const double u = gen.next_double() - 0.5;
    double v = gen.next_double();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kd);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_correction(m) + stirling_correction(nd - m) -
        stirling_correction(kd) - stirling_correction(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

}  // namespace reference

// The n of one fuzz draw: zero, the inversion/BTRS boundary n·min(p, 1−p)
// just under and just over 10, log-uniform sizes up to 10^7, stage-2-like
// repeats, and pairs `slots` apart that evict each other.
std::uint64_t fuzz_n(rng& fuzz, double p, std::uint64_t& previous) {
  const double low = std::min(p, 1.0 - p);
  const auto boundary = low > 0.0 ? static_cast<std::uint64_t>(std::ceil(10.0 / low)) : 2;
  switch (fuzz.next_below(6)) {
    case 0:
      return fuzz.next_below(4) == 0 ? 0 : 1 + fuzz.next_below(3);
    case 1:
      return boundary - 2 + fuzz.next_below(4);
    case 2:
      return static_cast<std::uint64_t>(std::exp(fuzz.next_double() * std::log(1e7)));
    case 3:
      return (fuzz.next_below(2) == 0 ? 20 : 800) + fuzz.next_below(17) - 8;
    default:
      // Alternate two n that are `slots` apart: both map to one entry.
      previous ^= binomial_table::slots;
      return previous;
  }
}

TEST(binomial_table, draws_exactly_what_sample_binomial_draws) {
  const double ps[] = {0.0, 1.0, 1e-9, 0.5, 0.5 + 1e-12, 0.38, 0.62, 0.03, 0.97};
  for (std::size_t c = 0; c < std::size(ps); ++c) {
    const double p = ps[c];
    binomial_table table{p};
    rng fuzz{100 + c};
    rng by_table{200 + c};
    rng by_call = by_table;
    rng by_reference = by_table;
    std::uint64_t previous = c % 2 == 0 ? 1000 : 30 + c;  // BTRS / inversion pairs
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t n = fuzz_n(fuzz, p, previous);
      const std::uint64_t expected = reference::binomial(by_reference, n, p);
      ASSERT_EQ(sample_binomial(by_call, n, p), expected) << "p=" << p << " n=" << n;
      ASSERT_EQ(by_call, by_reference) << "p=" << p << " n=" << n;
      ASSERT_EQ(table.sample(by_table, n), expected) << "p=" << p << " n=" << n;
      ASSERT_EQ(by_table, by_reference) << "p=" << p << " n=" << n;
    }
  }
}

// --- multinomial ----------------------------------------------------------------

TEST(multinomial_sampler, counts_sum_to_n) {
  rng gen{11};
  const std::vector<double> w{0.2, 0.3, 0.5};
  std::vector<std::uint64_t> out(3);
  for (int i = 0; i < 1000; ++i) {
    sample_multinomial(gen, 1000, w, out);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::uint64_t{0}), 1000U);
  }
}

TEST(multinomial_sampler, marginals_are_binomial_means) {
  rng gen{12};
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};  // unnormalized on purpose
  std::vector<std::uint64_t> out(4);
  std::vector<running_stats> stats(4);
  constexpr std::uint64_t n = 10000;
  for (int i = 0; i < 2000; ++i) {
    sample_multinomial(gen, n, w, out);
    for (std::size_t j = 0; j < 4; ++j) stats[j].add(static_cast<double>(out[j]));
  }
  for (std::size_t j = 0; j < 4; ++j) {
    const double pj = w[j] / 10.0;
    EXPECT_NEAR(stats[j].mean(), static_cast<double>(n) * pj,
                5.0 * std::sqrt(static_cast<double>(n) * pj * (1 - pj) / 2000.0) + 1.0);
  }
}

TEST(multinomial_sampler, zero_weight_categories_get_nothing) {
  rng gen{13};
  const std::vector<double> w{0.0, 1.0, 0.0};
  std::vector<std::uint64_t> out(3);
  sample_multinomial(gen, 500, w, out);
  EXPECT_EQ(out[0], 0U);
  EXPECT_EQ(out[1], 500U);
  EXPECT_EQ(out[2], 0U);
}

TEST(multinomial_sampler, single_category) {
  rng gen{14};
  const std::vector<double> w{2.0};
  std::vector<std::uint64_t> out(1);
  sample_multinomial(gen, 42, w, out);
  EXPECT_EQ(out[0], 42U);
}

TEST(multinomial_sampler, rejects_bad_input) {
  rng gen{15};
  std::vector<std::uint64_t> out(2);
  EXPECT_THROW(sample_multinomial(gen, 10, std::vector<double>{0.5}, out),
               std::invalid_argument);
  EXPECT_THROW(sample_multinomial(gen, 10, std::vector<double>{-1.0, 2.0}, out),
               std::invalid_argument);
  EXPECT_THROW(sample_multinomial(gen, 10, std::vector<double>{0.0, 0.0}, out),
               std::invalid_argument);
}

// --- categorical ----------------------------------------------------------------

TEST(categorical_sampler, frequencies_match_weights) {
  rng gen{16};
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<std::uint64_t> counts(3, 0);
  constexpr int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[sample_categorical(gen, w)];
  const std::vector<double> expected{0.1, 0.3, 0.6};
  EXPECT_GT(chi_square_test(counts, expected).p_value, k_reject_level);
}

TEST(categorical_sampler, skips_zero_weights) {
  rng gen{17};
  const std::vector<double> w{0.0, 1.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(sample_categorical(gen, w), 1U);
}

// --- discrete_sampler (alias) ------------------------------------------------------

TEST(discrete_sampler, normalizes_probabilities) {
  const std::vector<double> w{2.0, 6.0};
  const discrete_sampler sampler{w};
  EXPECT_NEAR(sampler.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(sampler.probability(1), 0.75, 1e-12);
  EXPECT_EQ(sampler.size(), 2U);
}

TEST(discrete_sampler, chi_square_fit) {
  rng gen{18};
  const std::vector<double> w{0.05, 0.15, 0.45, 0.05, 0.30};
  const discrete_sampler sampler{w};
  std::vector<std::uint64_t> counts(w.size(), 0);
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(gen)];
  EXPECT_GT(chi_square_test(counts, w).p_value, k_reject_level);
}

TEST(discrete_sampler, handles_zero_weight_entries) {
  rng gen{19};
  const std::vector<double> w{0.0, 0.0, 1.0, 0.0};
  const discrete_sampler sampler{w};
  for (int i = 0; i < 500; ++i) EXPECT_EQ(sampler.sample(gen), 2U);
}

TEST(discrete_sampler, single_entry) {
  rng gen{20};
  const discrete_sampler sampler{std::vector<double>{5.0}};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler.sample(gen), 0U);
}

TEST(discrete_sampler, rejects_bad_weights) {
  EXPECT_THROW((discrete_sampler{std::vector<double>{}}), std::invalid_argument);
  EXPECT_THROW((discrete_sampler{std::vector<double>{-1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW((discrete_sampler{std::vector<double>{0.0, 0.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace sgl
