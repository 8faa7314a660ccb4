// Exact-law and pinning tests.
//
// 1. Golden RNG outputs: the determinism contract (README: "results are
//    bit-reproducible ... across platforms") is pinned to literal values so
//    any change to the generator or samplers is caught loudly.
// 2. Exact one-step law: for a small population the full joint distribution
//    of (stage counts, adopter counts) is enumerable in closed form; the
//    aggregate engine's samples must chi-square-match the exact pmf — this
//    validates the whole stage-1/stage-2 factorization against hand math,
//    not just against the agent-based engine.
// 3. Sampler regime-boundary regressions (inversion vs BTRS threshold).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/params.h"
#include "support/distributions.h"
#include "support/gof.h"
#include "support/rng.h"

namespace sgl {
namespace {

// --- golden values ----------------------------------------------------------------

TEST(golden, xoshiro_outputs_are_pinned) {
  rng gen{12345};
  EXPECT_EQ(gen.next_u64(), 0xbe6a36374160d49bULL);
  EXPECT_EQ(gen.next_u64(), 0x214aaa0637a688c6ULL);
  EXPECT_EQ(gen.next_u64(), 0xf69d16de9954d388ULL);
  EXPECT_EQ(gen.next_u64(), 0x0c60048c4e96e033ULL);
}

TEST(golden, stream_outputs_are_pinned) {
  rng gen = rng::from_stream(42, 7);
  EXPECT_EQ(gen.next_u64(), 0x6ac27502cb24d3faULL);
  EXPECT_EQ(gen.next_u64(), 0x17aa9151fc95c761ULL);
}

TEST(golden, doubles_are_pinned) {
  rng gen{99};
  EXPECT_DOUBLE_EQ(gen.next_double(), 0.34870385642514956);
  EXPECT_DOUBLE_EQ(gen.next_double(), 0.56400002473842115);
  EXPECT_DOUBLE_EQ(gen.next_double(), 0.37821456048755686);
}

TEST(golden, binomial_draws_are_pinned) {
  rng gen{5};
  EXPECT_EQ(sample_binomial(gen, 1000, 0.3), 291U);
  EXPECT_EQ(sample_binomial(gen, 1000, 0.3), 306U);
  EXPECT_EQ(sample_binomial(gen, 1000, 0.3), 301U);
  EXPECT_EQ(sample_binomial(gen, 1000, 0.3), 300U);
  EXPECT_EQ(sample_binomial(gen, 1000, 0.3), 294U);
}

// --- exact one-step law --------------------------------------------------------------

double binomial_pmf(std::uint64_t n, std::uint64_t k, double p) {
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = std::lgamma(static_cast<double>(n + 1)) -
                         std::lgamma(static_cast<double>(k + 1)) -
                         std::lgamma(static_cast<double>(n - k + 1)) +
                         static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

TEST(exact_law, aggregate_one_step_matches_enumerated_pmf) {
  // N = 4, m = 2, start from adopter counts (3, 1), signals R = (1, 0).
  //   p0 = (1-mu) * 3/4 + mu/2,   S0 ~ Binomial(4, p0),
  //   D0 | S0 ~ Binomial(S0, beta),   D1 | S0 ~ Binomial(4 - S0, alpha).
  core::dynamics_params params;
  params.num_options = 2;
  params.mu = 0.2;
  params.beta = 0.7;  // alpha = 0.3
  constexpr std::uint64_t n = 4;
  const double p0 = (1.0 - params.mu) * 0.75 + params.mu / 2.0;
  const double alpha = params.resolved_alpha();
  const std::vector<std::uint8_t> rewards{1, 0};
  const std::vector<std::uint64_t> start{3, 1};

  // Enumerate the exact pmf over outcomes keyed (S0, D0, D1).
  std::map<std::uint64_t, double> exact;
  for (std::uint64_t s0 = 0; s0 <= n; ++s0) {
    for (std::uint64_t d0 = 0; d0 <= s0; ++d0) {
      for (std::uint64_t d1 = 0; d1 <= n - s0; ++d1) {
        const double prob = binomial_pmf(n, s0, p0) *
                            binomial_pmf(s0, d0, params.beta) *
                            binomial_pmf(n - s0, d1, alpha);
        exact[(s0 * 8 + d0) * 8 + d1] += prob;
      }
    }
  }

  // Sample the engine.
  std::map<std::uint64_t, std::uint64_t> observed;
  constexpr int reps = 40000;
  for (int rep = 0; rep < reps; ++rep) {
    rng gen = rng::from_stream(777, static_cast<std::uint64_t>(rep));
    core::aggregate_dynamics dyn{params, n, start};
    dyn.step(rewards, gen);
    const std::uint64_t key =
        (dyn.stage_counts()[0] * 8 + dyn.adopter_counts()[0]) * 8 +
        dyn.adopter_counts()[1];
    ++observed[key];
  }

  // Chi-square of observed counts against the exact probabilities.
  std::vector<std::uint64_t> counts;
  std::vector<double> probabilities;
  for (const auto& [key, prob] : exact) {
    probabilities.push_back(prob);
    const auto it = observed.find(key);
    counts.push_back(it == observed.end() ? 0 : it->second);
  }
  // Every observed key must be an enumerated (possible) outcome.
  std::uint64_t covered = 0;
  for (const std::uint64_t c : counts) covered += c;
  EXPECT_EQ(covered, static_cast<std::uint64_t>(reps));

  const gof_result res = chi_square_test(counts, probabilities);
  EXPECT_GT(res.p_value, 1e-4) << "stat=" << res.statistic;
}

TEST(exact_law, empty_start_uses_uniform_stage_probabilities) {
  // From the fresh (nobody committed) state, stage-1 sampling must be
  // exactly uniform: S0 ~ Binomial(N, 1/2) regardless of mu.
  core::dynamics_params params;
  params.num_options = 2;
  params.mu = 0.3;
  params.beta = 0.6;
  constexpr std::uint64_t n = 6;
  const std::vector<std::uint8_t> rewards{1, 1};

  std::vector<std::uint64_t> counts(n + 1, 0);
  constexpr int reps = 30000;
  for (int rep = 0; rep < reps; ++rep) {
    rng gen = rng::from_stream(888, static_cast<std::uint64_t>(rep));
    core::aggregate_dynamics dyn{params, n};
    dyn.step(rewards, gen);
    ++counts[dyn.stage_counts()[0]];
  }
  std::vector<double> expected(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) expected[k] = binomial_pmf(n, k, 0.5);
  EXPECT_GT(chi_square_test(counts, expected).p_value, 1e-4);
}

// --- sampler regime boundaries ----------------------------------------------------------

TEST(binomial_boundary, inversion_and_btrs_agree_across_threshold) {
  // n*p = 9.9 uses inversion, n*p = 10.2 uses BTRS; both must match the
  // exact pmf (regression for the dispatch threshold).
  for (const auto& [n, p] : std::vector<std::pair<std::uint64_t, double>>{
           {33, 0.3}, {34, 0.3}, {99, 0.101}, {101, 0.099}}) {
    rng gen{n * 31 + 1};
    std::vector<std::uint64_t> counts(n + 1, 0);
    constexpr int reps = 30000;
    for (int rep = 0; rep < reps; ++rep) ++counts[sample_binomial(gen, n, p)];
    std::vector<double> expected(n + 1);
    for (std::uint64_t k = 0; k <= n; ++k) expected[k] = binomial_pmf(n, k, p);
    EXPECT_GT(chi_square_test(counts, expected).p_value, 1e-4)
        << "n=" << n << " p=" << p;
  }
}

}  // namespace
}  // namespace sgl
