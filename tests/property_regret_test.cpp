// Property tests: the paper's theorem inequalities checked empirically over
// parameter sweeps.  Each sweep point runs a Monte-Carlo estimate with a
// fixed seed; assertions allow the estimate's CI plus a small slack, so the
// tests are deterministic and non-flaky.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/experiment.h"
#include "core/params.h"
#include "core/probe.h"
#include "core/theory.h"
#include "env/reward_model.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl::core {
namespace {

env_factory bernoulli_factory(std::vector<double> etas) {
  return [etas] { return std::make_unique<env::bernoulli_rewards>(etas); };
}

/// 95% CI of the regret probe's scalar `key` after one Monte-Carlo run.
mean_ci run_regret(const engine_factory& engines, const env_factory& envs,
                   const run_config& config, std::string_view key) {
  const std::unique_ptr<probe> prototype = make_probe("regret");
  const probe* probes[] = {prototype.get()};
  const probe_report report = run_with_probes(engines, envs, config, probes)[0]->report();
  const probe_scalar& found = *report.find_scalar(key);
  return {.mean = found.value, .half_width = found.half_width};
}

/// 95% CI of the regret of the infinite dynamics (optionally from `start`).
mean_ci infinite_regret(const dynamics_params& params, const env_factory& envs,
                        const run_config& config, std::span<const double> start = {}) {
  return run_regret(make_infinite_engine_factory(params, start), envs, config, "regret");
}

/// 95% CI of the regret of the exact aggregate finite dynamics.
mean_ci finite_regret(const dynamics_params& params, std::uint64_t num_agents,
                      const env_factory& envs, const run_config& config) {
  return run_regret(make_finite_engine_factory(params, num_agents), envs, config, "regret");
}

struct sweep_point {
  std::size_t m;
  double beta;
};

std::string sweep_name(const ::testing::TestParamInfo<sweep_point>& info) {
  return "m" + std::to_string(info.param.m) + "_beta" +
         std::to_string(static_cast<int>(std::round(info.param.beta * 1000)));
}

std::vector<double> sweep_etas(std::size_t m) {
  return env::two_level_etas(m, 0.85, 0.35);
}

// --- Theorem 4.3: Regret_inf(T) <= 3 delta for T >= ln m / delta^2 --------------

class theorem_43_sweep : public ::testing::TestWithParam<sweep_point> {};

TEST_P(theorem_43_sweep, infinite_regret_below_3delta) {
  const auto [m, beta] = GetParam();
  const dynamics_params params = theorem_params(m, beta);
  const double bound = theory::infinite_regret_bound(beta);
  const auto horizon = static_cast<std::uint64_t>(
      std::ceil(std::max(theory::min_horizon(m, beta), 8.0)));

  run_config config;
  config.horizon = horizon;
  config.replications = 120;
  config.seed = 1234;
  const mean_ci regret = infinite_regret(params, bernoulli_factory(sweep_etas(m)), config);
  EXPECT_LE(regret.mean - regret.half_width, bound)
      << "measured " << regret.mean << " vs bound " << bound;
}

TEST_P(theorem_43_sweep, infinite_regret_still_bounded_at_4x_horizon) {
  // "for all T >= ln m / delta^2" — spot-check a longer horizon too.
  const auto [m, beta] = GetParam();
  const dynamics_params params = theorem_params(m, beta);
  const double bound = theory::infinite_regret_bound(beta);
  run_config config;
  config.horizon = static_cast<std::uint64_t>(
      std::ceil(4.0 * std::max(theory::min_horizon(m, beta), 8.0)));
  config.replications = 60;
  config.seed = 4321;
  const mean_ci regret = infinite_regret(params, bernoulli_factory(sweep_etas(m)), config);
  EXPECT_LE(regret.mean - regret.half_width, bound);
}

INSTANTIATE_TEST_SUITE_P(grid, theorem_43_sweep,
                         ::testing::Values(sweep_point{2, 0.55}, sweep_point{2, 0.6},
                                           sweep_point{2, 0.65}, sweep_point{2, 0.73},
                                           sweep_point{5, 0.55}, sweep_point{5, 0.62},
                                           sweep_point{5, 0.7}, sweep_point{10, 0.6},
                                           sweep_point{10, 0.73}, sweep_point{20, 0.62},
                                           sweep_point{20, 0.7}),
                         sweep_name);

// --- Theorem 4.4: Regret_N(T) <= 6 delta ---------------------------------------

class theorem_44_sweep : public ::testing::TestWithParam<sweep_point> {};

TEST_P(theorem_44_sweep, finite_regret_below_6delta) {
  const auto [m, beta] = GetParam();
  const dynamics_params params = theorem_params(m, beta);
  const double bound = theory::finite_regret_bound(beta);
  run_config config;
  config.horizon = static_cast<std::uint64_t>(
      std::ceil(std::max(theory::min_horizon(m, beta), 8.0)));
  config.replications = 120;
  config.seed = 77;
  const mean_ci regret =
      finite_regret(params, 20000, bernoulli_factory(sweep_etas(m)), config);
  EXPECT_LE(regret.mean - regret.half_width, bound)
      << "measured " << regret.mean << " vs bound " << bound;
}

TEST_P(theorem_44_sweep, finite_regret_bounded_even_for_modest_population) {
  // The paper's N-conditions are astronomically conservative; the measured
  // claim should already hold at N = 1000 — worth pinning as a finding.
  const auto [m, beta] = GetParam();
  const dynamics_params params = theorem_params(m, beta);
  const double bound = theory::finite_regret_bound(beta);
  run_config config;
  config.horizon = static_cast<std::uint64_t>(
      std::ceil(std::max(theory::min_horizon(m, beta), 8.0)));
  config.replications = 120;
  config.seed = 78;
  const mean_ci regret =
      finite_regret(params, 1000, bernoulli_factory(sweep_etas(m)), config);
  EXPECT_LE(regret.mean - regret.half_width, bound);
}

INSTANTIATE_TEST_SUITE_P(grid, theorem_44_sweep,
                         ::testing::Values(sweep_point{2, 0.55}, sweep_point{2, 0.65},
                                           sweep_point{2, 0.73}, sweep_point{5, 0.6},
                                           sweep_point{5, 0.7}, sweep_point{10, 0.62},
                                           sweep_point{10, 0.73}, sweep_point{20, 0.65}),
                         sweep_name);

// --- Theorem 4.3 part 2: average mass on the best option ------------------------

struct mass_point {
  double beta;
  double gap;
};

class best_mass_sweep : public ::testing::TestWithParam<mass_point> {};

TEST_P(best_mass_sweep, time_average_best_mass_above_bound) {
  const auto [beta, gap] = GetParam();
  const dynamics_params params = theorem_params(3, beta);
  const double eta1 = 0.9;
  const double bound = theory::best_mass_lower_bound(beta, gap);
  run_config config;
  config.horizon = static_cast<std::uint64_t>(
      std::ceil(2.0 * std::max(theory::min_horizon(3, beta), 8.0)));
  config.replications = 100;
  config.seed = 99;
  const mean_ci best_mass =
      run_regret(make_infinite_engine_factory(params),
                 bernoulli_factory({eta1, eta1 - gap, eta1 - gap}), config, "best_mass");
  EXPECT_GE(best_mass.mean + best_mass.half_width, bound)
      << "measured " << best_mass.mean << " vs bound " << bound;
}

INSTANTIATE_TEST_SUITE_P(
    grid, best_mass_sweep,
    ::testing::Values(mass_point{0.52, 0.8}, mass_point{0.55, 0.8},
                      mass_point{0.55, 0.5}, mass_point{0.6, 0.8},
                      mass_point{0.65, 0.8}, mass_point{0.73, 0.5}),
    [](const ::testing::TestParamInfo<mass_point>& info) {
      return "beta" + std::to_string(static_cast<int>(std::round(info.param.beta * 100))) +
             "_gap" + std::to_string(static_cast<int>(std::round(info.param.gap * 100)));
    });

// --- Theorem 4.6: nonuniform starts ----------------------------------------------

class theorem_46_sweep : public ::testing::TestWithParam<sweep_point> {};

TEST_P(theorem_46_sweep, regret_bounded_from_hostile_zeta_floor_start) {
  const auto [m, beta] = GetParam();
  const dynamics_params params = theorem_params(m, beta);
  const double zeta = 0.01;
  const double bound = theory::infinite_regret_bound(beta);
  // Worst case: the floor on every good option, the bulk on the worst.
  std::vector<double> start(m, zeta);
  start[m - 1] = 1.0 - zeta * static_cast<double>(m - 1);

  run_config config;
  config.horizon = static_cast<std::uint64_t>(
      std::ceil(std::max(theory::nonuniform_min_horizon(zeta, beta), 8.0)));
  config.replications = 100;
  config.seed = 111;
  const mean_ci regret =
      infinite_regret(params, bernoulli_factory(sweep_etas(m)), config, start);
  EXPECT_LE(regret.mean - regret.half_width, bound)
      << "measured " << regret.mean << " vs bound " << bound;
}

INSTANTIATE_TEST_SUITE_P(grid, theorem_46_sweep,
                         ::testing::Values(sweep_point{2, 0.6}, sweep_point{3, 0.62},
                                           sweep_point{5, 0.65}, sweep_point{10, 0.7}),
                         sweep_name);

// --- popularity floor (§4.3.2) ------------------------------------------------------

class popularity_floor_sweep : public ::testing::TestWithParam<sweep_point> {};

TEST_P(popularity_floor_sweep, min_popularity_rarely_below_zeta) {
  const auto [m, beta] = GetParam();
  const dynamics_params params = theorem_params(m, beta);
  const double zeta = theory::popularity_floor(m, params.mu, beta);
  const std::uint64_t n = 20000;

  rng process_gen = rng::from_stream(7, 0);
  rng env_gen = rng::from_stream(7, 1);
  env::bernoulli_rewards environment{sweep_etas(m)};
  aggregate_dynamics dyn{params, n};
  std::vector<std::uint8_t> r(m);
  std::uint64_t violations = 0;
  constexpr std::uint64_t horizon = 400;
  for (std::uint64_t t = 1; t <= horizon; ++t) {
    environment.sample(t, env_gen, r);
    dyn.step(r, process_gen);
    double min_q = 1.0;
    for (const double q : dyn.popularity()) min_q = std::min(min_q, q);
    if (min_q < zeta) ++violations;
  }
  EXPECT_LT(static_cast<double>(violations) / static_cast<double>(horizon), 0.05)
      << "zeta=" << zeta;
}

INSTANTIATE_TEST_SUITE_P(grid, popularity_floor_sweep,
                         ::testing::Values(sweep_point{2, 0.6}, sweep_point{3, 0.62},
                                           sweep_point{5, 0.65}, sweep_point{10, 0.7}),
                         sweep_name);

// --- structural symmetry -------------------------------------------------------------

TEST(symmetry, equal_quality_options_are_exchangeable) {
  // η = (0.8, 0.4, 0.4): options 1 and 2 must get the same long-run mass.
  const dynamics_params params = theorem_params(3, 0.62);
  constexpr int reps = 300;
  running_stats mass1;
  running_stats mass2;
  for (int rep = 0; rep < reps; ++rep) {
    rng process_gen = rng::from_stream(31, static_cast<std::uint64_t>(2 * rep));
    rng env_gen = rng::from_stream(31, static_cast<std::uint64_t>(2 * rep + 1));
    env::bernoulli_rewards environment{{0.8, 0.4, 0.4}};
    aggregate_dynamics dyn{params, 5000};
    std::vector<std::uint8_t> r(3);
    for (std::uint64_t t = 1; t <= 120; ++t) {
      environment.sample(t, env_gen, r);
      dyn.step(r, process_gen);
    }
    mass1.add(dyn.popularity()[1]);
    mass2.add(dyn.popularity()[2]);
  }
  const double se = std::sqrt(mass1.variance() / reps + mass2.variance() / reps);
  EXPECT_NEAR(mass1.mean(), mass2.mean(), 4.0 * se + 0.005);
}

TEST(monotonicity, bigger_quality_gap_gives_more_best_mass) {
  const dynamics_params params = theorem_params(2, 0.62);
  run_config config;
  config.horizon = 150;
  config.replications = 120;
  config.seed = 41;
  const auto engines = make_finite_engine_factory(params, 5000);
  const mean_ci wide = run_regret(engines, bernoulli_factory({0.9, 0.2}), config, "best_mass");
  const mean_ci narrow = run_regret(engines, bernoulli_factory({0.9, 0.7}), config, "best_mass");
  EXPECT_GT(wide.mean, narrow.mean + narrow.half_width);
}

TEST(monotonicity, smaller_beta_gives_smaller_regret_bound_and_regret) {
  // The paper: "the closer β is to 1/2, the better the regret."
  run_config config;
  config.horizon = 400;
  config.replications = 100;
  config.seed = 43;
  const auto factory = bernoulli_factory({0.85, 0.35});
  const mean_ci gentle = infinite_regret(theorem_params(2, 0.55), factory, config);
  const mean_ci aggressive = infinite_regret(theorem_params(2, 0.73), factory, config);
  // Bounds are ordered by construction...
  EXPECT_LT(theory::infinite_regret_bound(0.55), theory::infinite_regret_bound(0.73));
  // ...and at long horizons the measured steady-state regret follows suit.
  EXPECT_LT(gentle.mean, aggressive.mean + aggressive.half_width);
}

}  // namespace
}  // namespace sgl::core
