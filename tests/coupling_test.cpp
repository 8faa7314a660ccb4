// Tests for the coupling probe (Lemma 4.5): the max-ratio deviation of the
// finite process from the infinite one driven by the same rewards.  One
// step is checked by hand; over runs the deviation must shrink with N, grow
// with t, stay within the lemma's bound in its regime, and be capped where
// an option's finite popularity hits zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/experiment.h"
#include "core/params.h"
#include "core/probe.h"
#include "core/theory.h"
#include "env/reward_model.h"

namespace sgl::core {
namespace {

env_factory bernoulli_factory(std::vector<double> etas) {
  return [etas] { return std::make_unique<env::bernoulli_rewards>(etas); };
}

/// The report of `prototype` after one run.
probe_report run_report(const engine_factory& engines, const env_factory& envs,
                        const run_config& config, const probe& prototype) {
  const probe* pointers[] = {&prototype};
  return run_with_probes(engines, envs, config, pointers)[0]->report();
}

double scalar(const probe_report& report, std::string_view key) {
  const probe_scalar* found = report.find_scalar(key);
  if (found == nullptr) throw std::logic_error{"no scalar " + std::string{key}};
  return found->value;
}

/// Feeds `engine`'s next step, on `rewards`, to `target` as the runner would.
void step_into(probe& target, dynamics_engine& engine, const env::reward_model& environment,
               std::span<const std::uint8_t> rewards, std::uint64_t t, rng& gen) {
  const std::vector<double> before(engine.popularity().begin(), engine.popularity().end());
  engine.step(rewards, gen);
  target.on_step({.t = t, .horizon = 1, .popularity_before = before, .rewards = rewards,
                  .engine = engine, .environment = environment});
}

TEST(coupling_probe, one_step_by_hand) {
  const dynamics_params params = theorem_params(2, 0.62);
  constexpr std::uint64_t n = 2000;
  aggregate_dynamics engine{params, n};
  const env::bernoulli_rewards environment{{0.8, 0.4}};
  const std::vector<std::uint8_t> rewards{1, 0};
  rng gen{9};
  coupling_probe probe;
  probe.begin_replication(1);
  step_into(probe, engine, environment, rewards, 1, gen);
  probe.end_replication(engine, environment, 1);

  // One infinite step from uniform: P_j ∝ g_j, so P = (beta, 1 - beta).
  const std::vector<double> p{0.62, 0.38};
  const auto q = engine.popularity();
  double deviation = 0.0;
  for (std::size_t j = 0; j < 2; ++j) {
    deviation = std::max(deviation, std::max(p[j] / q[j], q[j] / p[j]) - 1.0);
  }
  const probe_report report = probe.report();
  EXPECT_NEAR(scalar(report, "deviation"), deviation, 1e-12);
  EXPECT_NEAR(scalar(report, "deviation_max"), deviation, 1e-12);
  EXPECT_EQ(scalar(report, "capped_steps"), 0.0);
  EXPECT_EQ(scalar(report, "within_bound"),
            deviation <= theory::coupling_bound(1, 2, params.mu, params.beta, n) ? 1.0 : 0.0);
  EXPECT_EQ(scalar(report, "sampling_sd_sqrt_n"), 0.0) << "one sample has no spread";
  EXPECT_EQ(scalar(report, "replications"), 1.0);
}

TEST(coupling_probe, deviation_shrinks_with_population) {
  const dynamics_params params = theorem_params(2, 0.62);
  run_config config;
  config.horizon = 10;
  config.replications = 60;
  config.seed = 2;
  const auto envs = bernoulli_factory({0.8, 0.4});
  const probe_report small =
      run_report(make_finite_engine_factory(params, 500), envs, config, coupling_probe{});
  const probe_report large =
      run_report(make_finite_engine_factory(params, 200000), envs, config, coupling_probe{});
  EXPECT_LT(scalar(large, "deviation"), scalar(small, "deviation") / 10.0);
  EXPECT_LT(scalar(large, "deviation"), 0.05);
}

TEST(coupling_probe, deviation_grows_with_time) {
  const dynamics_params params = theorem_params(2, 0.62);
  run_config config;
  config.replications = 60;
  config.seed = 3;
  const auto envs = bernoulli_factory({0.8, 0.4});
  config.horizon = 1;
  const probe_report first =
      run_report(make_finite_engine_factory(params, 5000), envs, config, coupling_probe{});
  config.horizon = 40;
  const probe_report later =
      run_report(make_finite_engine_factory(params, 5000), envs, config, coupling_probe{});
  // Early deviation is tiny; trajectories decouple as the steps add up.
  EXPECT_LT(2.0 * scalar(first, "deviation"), scalar(later, "deviation"));
}

TEST(coupling_probe, lemma_bound_holds_with_high_probability) {
  // In the lemma's own regime (large N, few steps) the empirical fraction
  // of steps within 5^t delta'' must be essentially one.
  const dynamics_params params = theorem_params(2, 0.6);
  run_config config;
  config.horizon = 4;
  config.replications = 200;
  config.seed = 4;
  const probe_report report = run_report(make_finite_engine_factory(params, 1000000),
                                         bernoulli_factory({0.8, 0.4}), config,
                                         coupling_probe{});
  EXPECT_GT(scalar(report, "within_bound"), 0.99);
  EXPECT_EQ(scalar(report, "replications"), 200.0);
}

TEST(coupling_probe, caps_the_ratio_on_zero_popularity) {
  // mu = 0 with alpha = 0 can zero out an option in the finite process while
  // the infinite one keeps mass: the ratio explodes and must be capped.
  dynamics_params params;
  params.num_options = 2;
  params.mu = 0.0;
  params.beta = 1.0;
  params.alpha = 0.0;
  run_config config;
  config.horizon = 30;
  config.replications = 40;
  config.seed = 5;
  const probe_report report = run_report(make_finite_engine_factory(params, 10),
                                         bernoulli_factory({0.9, 0.1}), config,
                                         coupling_probe{});
  EXPECT_EQ(scalar(report, "deviation_max"), coupling_probe::k_deviation_cap);
  EXPECT_LE(scalar(report, "deviation"), coupling_probe::k_deviation_cap);
  EXPECT_GT(scalar(report, "capped_steps"), 0.0);
  EXPECT_EQ(scalar(report, "within_bound"), 1.0) << "outside the regime the bound is +inf";
}

}  // namespace
}  // namespace sgl::core
