// Property and invariant tests for the dynamics_engine interface: every
// engine, driven polymorphically, must keep popularity on the simplex,
// keep adopter counts consistent with popularity, and honour reset().

#include "core/dynamics_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/experiment.h"
#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/probe.h"
#include "env/reward_model.h"
#include "identical_agents.h"
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

/// One instance of every engine over the same (m, mu, beta) model.
std::vector<std::unique_ptr<dynamics_engine>> all_engines(const dynamics_params& params,
                                                          std::uint64_t num_agents) {
  std::vector<std::unique_ptr<dynamics_engine>> engines;
  engines.push_back(std::make_unique<aggregate_dynamics>(params, num_agents));
  engines.push_back(std::make_unique<finite_dynamics>(
      identical_agents(params, static_cast<std::size_t>(num_agents))));
  engines.push_back(std::make_unique<infinite_dynamics>(params));
  engines.push_back(std::make_unique<aggregate_dynamics>(
      params, std::vector<rule_group>{{num_agents / 2, {0.1, 0.9}},
                                      {num_agents - num_agents / 2, {0.35, 0.65}}}));
  return engines;
}

TEST(dynamics_engine, popularity_stays_on_the_simplex) {
  const dynamics_params params = make_params(5, 0.1, 0.65);
  rng env_gen{3};
  for (auto& engine : all_engines(params, 200)) {
    rng gen{7};
    std::vector<std::uint8_t> rewards(5);
    for (int t = 0; t < 200; ++t) {
      for (auto& x : rewards) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
      engine->step(rewards, gen);
      const auto q = engine->popularity();
      ASSERT_EQ(q.size(), 5U);
      double total = 0.0;
      for (const double x : q) {
        ASSERT_GE(x, 0.0);
        ASSERT_LE(x, 1.0 + 1e-12);
        total += x;
      }
      ASSERT_NEAR(total, 1.0, 1e-9);
    }
    EXPECT_EQ(engine->steps(), 200U);
  }
}

TEST(dynamics_engine, adopter_counts_match_popularity) {
  const dynamics_params params = make_params(4, 0.2, 0.7);
  rng env_gen{5};
  for (auto& engine : all_engines(params, 300)) {
    rng gen{11};
    std::vector<std::uint8_t> rewards(4);
    for (int t = 0; t < 150; ++t) {
      for (auto& x : rewards) x = env_gen.next_bernoulli(0.4) ? 1 : 0;
      engine->step(rewards, gen);
      const auto counts = engine->adopter_counts();
      if (counts.empty()) continue;  // infinite engine: no individuals
      ASSERT_EQ(counts.size(), 4U);
      const std::uint64_t total =
          std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
      ASSERT_LE(total, 300U);
      const auto q = engine->popularity();
      if (total == 0) {
        for (const double x : q) ASSERT_DOUBLE_EQ(x, 0.25);  // uniform rule
      } else {
        for (std::size_t j = 0; j < counts.size(); ++j) {
          ASSERT_DOUBLE_EQ(q[j], static_cast<double>(counts[j]) /
                                     static_cast<double>(total));
        }
      }
    }
  }
}

TEST(dynamics_engine, empty_steps_counted_and_uniform) {
  // beta = 1, alpha = 0, all-bad signals: nobody can ever adopt.  The
  // grouped engine takes its rules from the groups, so it gets the same
  // (0, 1) rule explicitly.
  const dynamics_params params = make_params(3, 0.5, 1.0, 0.0);
  const std::vector<std::uint8_t> all_bad{0, 0, 0};
  std::vector<std::unique_ptr<dynamics_engine>> engines;
  engines.push_back(std::make_unique<aggregate_dynamics>(params, 50));
  engines.push_back(std::make_unique<finite_dynamics>(identical_agents(params, 50)));
  engines.push_back(std::make_unique<infinite_dynamics>(params));
  engines.push_back(std::make_unique<aggregate_dynamics>(
      params, std::vector<rule_group>{{50, {0.0, 1.0}}}));
  for (auto& engine : engines) {
    rng gen{13};
    for (int t = 0; t < 10; ++t) engine->step(all_bad, gen);
    EXPECT_EQ(engine->empty_steps(), 10U);
    for (const double q : engine->popularity()) EXPECT_DOUBLE_EQ(q, 1.0 / 3.0);
  }
}

TEST(dynamics_engine, reset_restores_the_initial_state) {
  const dynamics_params params = make_params(3, 0.1, 0.6);
  const std::vector<std::uint8_t> rewards{1, 0, 1};
  for (auto& engine : all_engines(params, 80)) {
    rng gen{17};
    for (int t = 0; t < 5; ++t) engine->step(rewards, gen);
    engine->reset();
    EXPECT_EQ(engine->steps(), 0U);
    EXPECT_EQ(engine->empty_steps(), 0U);
    for (const double q : engine->popularity()) ASSERT_DOUBLE_EQ(q, 1.0 / 3.0);
    const auto counts = engine->adopter_counts();
    for (const std::uint64_t d : counts) ASSERT_EQ(d, 0U);
  }
}

TEST(dynamics_engine, run_with_probes_accepts_any_engine_factory) {
  // The generic runner only sees dynamics_engine; every engine kind must
  // run through it under the regret probe alone and with the trajectory
  // probe added.
  const dynamics_params params = make_params(3, 0.1, 0.65);
  const std::vector<double> etas{0.8, 0.4, 0.4};
  const env_factory env = [&] { return std::make_unique<env::bernoulli_rewards>(etas); };

  const std::vector<engine_factory> factories{
      [&] { return std::make_unique<infinite_dynamics>(params); },
      [&] { return std::make_unique<aggregate_dynamics>(params, 500); },
      [&] { return std::make_unique<finite_dynamics>(identical_agents(params, 500)); },
      [&] {
        return std::make_unique<aggregate_dynamics>(
            params, std::vector<rule_group>{{500, {0.35, 0.65}}});
      },
  };

  run_config config;
  config.horizon = 60;
  config.replications = 8;
  config.seed = 5;
  const std::unique_ptr<probe> scalars = make_probe("regret");
  const std::unique_ptr<probe> curves = make_probe("trajectory");
  const probe* plain_probes[] = {scalars.get()};
  const probe* curved_probes[] = {scalars.get(), curves.get()};
  for (const auto& factory : factories) {
    const auto plain = collect_reports(run_with_probes(factory, env, config, plain_probes));
    ASSERT_EQ(plain.size(), 1U);
    const probe_report& plain_scalars = plain[0];
    EXPECT_EQ(plain_scalars.find_scalar("replications")->value, 8.0);
    EXPECT_NEAR(plain_scalars.find_scalar("average_reward")->value +
                    plain_scalars.find_scalar("regret")->value,
                0.8, 1e-9);

    const auto curved = collect_reports(run_with_probes(factory, env, config, curved_probes));
    ASSERT_EQ(curved.size(), 2U);
    EXPECT_EQ(curved[1].find_series("best_mass_mean")->values.size(), 60U);
    // Same seed => identical scalar estimates with or without curves.
    EXPECT_DOUBLE_EQ(curved[0].find_scalar("regret")->value,
                     plain_scalars.find_scalar("regret")->value);
  }
}

TEST(dynamics_engine, infinite_dynamics_adapters) {
  const dynamics_params params = make_params(4, 0.1, 0.6);
  infinite_dynamics dyn{params};
  const dynamics_engine& engine = dyn;
  EXPECT_TRUE(engine.adopter_counts().empty());
  EXPECT_EQ(engine.num_options(), 4U);
  rng gen{1};
  std::vector<std::uint8_t> rewards{1, 0, 0, 1};
  dyn.step(rewards, gen);  // engine-interface step ignores the generator
  EXPECT_EQ(engine.steps(), 1U);
  const auto p = dyn.distribution();
  const auto q = engine.popularity();
  for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(p[j], q[j]);
}

}  // namespace
}  // namespace sgl::core
