#include "core/infinite_dynamics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/params.h"
#include "support/rng.h"

namespace sgl::core {
namespace {

dynamics_params make_params(std::size_t m, double mu, double beta, double alpha = -1.0) {
  dynamics_params p;
  p.num_options = m;
  p.mu = mu;
  p.beta = beta;
  p.alpha = alpha;
  return p;
}

/// Reference implementation: evolve raw weights exactly as eq. (1) states.
std::vector<double> raw_weights_reference(const dynamics_params& params,
                                          const std::vector<std::vector<std::uint8_t>>& rs) {
  const std::size_t m = params.num_options;
  std::vector<double> w(m, 1.0);
  for (const auto& r : rs) {
    double total = 0.0;
    for (const double x : w) total += x;
    std::vector<double> next(m);
    for (std::size_t j = 0; j < m; ++j) {
      const double mult = r[j] != 0 ? params.beta : params.resolved_alpha();
      next[j] = ((1.0 - params.mu) * w[j] + params.mu / static_cast<double>(m) * total) *
                mult;
    }
    w = next;
  }
  return w;
}

TEST(infinite_dynamics, starts_uniform) {
  const infinite_dynamics dyn{make_params(4, 0.1, 0.6)};
  for (const double p : dyn.distribution()) EXPECT_DOUBLE_EQ(p, 0.25);
  EXPECT_NEAR(dyn.log_potential(), std::log(4.0), 1e-12);
  EXPECT_EQ(dyn.steps(), 0U);
}

TEST(infinite_dynamics, matches_raw_weight_recursion) {
  const dynamics_params params = make_params(3, 0.07, 0.65);
  infinite_dynamics dyn{params};
  const std::vector<std::vector<std::uint8_t>> rewards{
      {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 0}, {1, 0, 1}};
  for (const auto& r : rewards) dyn.step(r);

  const std::vector<double> w = raw_weights_reference(params, rewards);
  double total = 0.0;
  for (const double x : w) total += x;
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(dyn.distribution()[j], w[j] / total, 1e-12);
  }
  // The log-potential tracks ln Σ_j W^t_j of the same recursion.
  EXPECT_NEAR(dyn.log_potential(), std::log(total), 1e-10);
  EXPECT_EQ(dyn.steps(), 5U);
}

TEST(infinite_dynamics, single_step_closed_form) {
  // m = 2, mu = 0.2, beta = 0.6, alpha = 0.4, R = (1, 0) from uniform:
  // pre-mix: (0.5, 0.5) -> stays (0.5, 0.5); multipliers (0.6, 0.4).
  infinite_dynamics dyn{make_params(2, 0.2, 0.6)};
  dyn.step(std::vector<std::uint8_t>{1, 0});
  EXPECT_NEAR(dyn.distribution()[0], 0.6, 1e-12);
  EXPECT_NEAR(dyn.distribution()[1], 0.4, 1e-12);
}

TEST(infinite_dynamics, stays_on_simplex_for_long_runs) {
  infinite_dynamics dyn{make_params(5, 0.02, 0.7)};
  rng gen{1};
  std::vector<std::uint8_t> r(5);
  for (int t = 0; t < 20000; ++t) {
    for (auto& x : r) x = gen.next_bernoulli(0.5) ? 1 : 0;
    dyn.step(r);
    double total = 0.0;
    for (const double p : dyn.distribution()) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(infinite_dynamics, exploration_keeps_probability_floor) {
  // With mu > 0, after the mix every option has pre-adoption mass >= mu/m;
  // after multiplying by alpha >= (1-beta) and normalizing by at most beta,
  // P_j >= (mu/m) * (1-beta) / beta.
  const dynamics_params params = make_params(4, 0.1, 0.6);
  infinite_dynamics dyn{params};
  const std::vector<std::uint8_t> worst{0, 1, 1, 1};  // option 0 always bad
  const double floor = (params.mu / 4.0) * 0.4 / 0.6;
  for (int t = 0; t < 2000; ++t) {
    dyn.step(worst);
    EXPECT_GE(dyn.distribution()[0], floor * 0.999);
  }
}

TEST(infinite_dynamics, mu_zero_equals_hedge_with_rate_delta) {
  // With mu = 0 and alpha = 1-beta the update is P_j ∝ P_j e^{δ R_j}:
  // exactly Hedge with learning rate δ, whose distribution after any
  // number of updates is the closed-form softmax P_j ∝ exp(δ·Σ_t R^t_j).
  const dynamics_params params = make_params(3, 0.0, 0.65);
  infinite_dynamics dyn{params};
  std::vector<double> cumulative(3, 0.0);
  rng gen{2};
  std::vector<std::uint8_t> r(3);
  for (int t = 0; t < 200; ++t) {
    for (auto& x : r) x = gen.next_bernoulli(0.4) ? 1 : 0;
    dyn.step(r);
    for (std::size_t j = 0; j < 3; ++j) cumulative[j] += r[j];
    const double top = *std::max_element(cumulative.begin(), cumulative.end());
    double norm = 0.0;
    for (const double c : cumulative) norm += std::exp(params.delta() * (c - top));
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_NEAR(dyn.distribution()[j],
                  std::exp(params.delta() * (cumulative[j] - top)) / norm, 1e-9);
    }
  }
}

TEST(infinite_dynamics, reset_uniform) {
  infinite_dynamics dyn{make_params(2, 0.1, 0.6)};
  dyn.step(std::vector<std::uint8_t>{1, 0});
  dyn.reset();
  EXPECT_DOUBLE_EQ(dyn.distribution()[0], 0.5);
  EXPECT_EQ(dyn.steps(), 0U);
  EXPECT_NEAR(dyn.log_potential(), std::log(2.0), 1e-12);
}

TEST(infinite_dynamics, nonuniform_start) {
  const std::vector<double> start{0.2, 0.3, 0.5};
  infinite_dynamics dyn{make_params(3, 0.1, 0.6), start};
  EXPECT_DOUBLE_EQ(dyn.distribution()[2], 0.5);
  dyn.step(std::vector<std::uint8_t>{0, 0, 1});
  EXPECT_GT(dyn.distribution()[2], 0.5);  // winner gains
}

TEST(infinite_dynamics, nonuniform_start_validation) {
  const dynamics_params params = make_params(3, 0.1, 0.6);
  EXPECT_THROW((infinite_dynamics{params, std::vector<double>{0.5, 0.5}}),
               std::invalid_argument);
  EXPECT_THROW((infinite_dynamics{params, std::vector<double>{0.5, 0.5, 0.5}}),
               std::invalid_argument);
  EXPECT_THROW((infinite_dynamics{params, std::vector<double>{-0.1, 0.6, 0.5}}),
               std::invalid_argument);
}

TEST(infinite_dynamics, rejects_mismatched_rewards) {
  infinite_dynamics dyn{make_params(3, 0.1, 0.6)};
  EXPECT_THROW(dyn.step(std::vector<std::uint8_t>{1, 0}), std::invalid_argument);
}

TEST(infinite_dynamics, degenerate_step_restarts_uniform) {
  // alpha = 0 and all-bad signals annihilate every option.
  infinite_dynamics dyn{make_params(2, 0.0, 1.0, 0.0)};
  dyn.step(std::vector<std::uint8_t>{1, 0});
  EXPECT_DOUBLE_EQ(dyn.distribution()[0], 1.0);
  dyn.step(std::vector<std::uint8_t>{0, 0});
  EXPECT_DOUBLE_EQ(dyn.distribution()[0], 0.5);
  EXPECT_EQ(dyn.degenerate_steps(), 1U);
}

TEST(infinite_dynamics, converges_to_best_option_statistically) {
  const dynamics_params params = theorem_params(4, 0.6);
  infinite_dynamics dyn{params};
  rng gen{3};
  const std::vector<double> etas{0.9, 0.3, 0.3, 0.3};
  std::vector<std::uint8_t> r(4);
  double late_mass = 0.0;
  int late_steps = 0;
  for (int t = 0; t < 3000; ++t) {
    for (std::size_t j = 0; j < 4; ++j) r[j] = gen.next_bernoulli(etas[j]) ? 1 : 0;
    dyn.step(r);
    if (t >= 1500) {
      late_mass += dyn.distribution()[0];
      ++late_steps;
    }
  }
  EXPECT_GT(late_mass / late_steps, 0.8);
}

TEST(infinite_dynamics, m_equals_one_is_trivial) {
  infinite_dynamics dyn{make_params(1, 0.1, 0.6)};
  dyn.step(std::vector<std::uint8_t>{1});
  EXPECT_DOUBLE_EQ(dyn.distribution()[0], 1.0);
}

TEST(infinite_dynamics, potential_decreases_by_at_most_log_beta_range) {
  // Per step, Φ shrinks by a factor in [alpha, beta] (each weight is
  // multiplied by alpha or beta after a mass-preserving mix).
  const dynamics_params params = make_params(3, 0.05, 0.6);
  infinite_dynamics dyn{params};
  rng gen{4};
  std::vector<std::uint8_t> r(3);
  double previous = dyn.log_potential();
  for (int t = 0; t < 200; ++t) {
    for (auto& x : r) x = gen.next_bernoulli(0.5) ? 1 : 0;
    dyn.step(r);
    const double drop = previous - dyn.log_potential();
    EXPECT_GE(drop, -std::log(params.beta) - 1e-9);
    EXPECT_LE(drop, -std::log(params.resolved_alpha()) + 1e-9);
    previous = dyn.log_potential();
  }
}

}  // namespace
}  // namespace sgl::core
