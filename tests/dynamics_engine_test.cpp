// Property and invariant tests for the dynamics_engine interface: every
// engine, driven polymorphically, must keep popularity on the simplex,
// keep adopter counts consistent with popularity, and honour reset();
// and the aggregate and agent-based engines must produce *identical*
// trajectories from a shared stream in the homogeneous mixed case (they
// sample the same multinomial/binomial factorization in the same order).

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
      params, static_cast<std::size_t>(num_agents)));
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
  engines.push_back(std::make_unique<finite_dynamics>(params, 50));
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

TEST(dynamics_engine, aggregate_and_agent_based_share_the_law_exactly) {
  // Homogeneous + fully mixed: the agent-based engine takes the batched
  // multinomial/binomial path, which consumes the generator identically to
  // the aggregate engine — same seed, same rewards, bit-identical
  // popularity trajectory *through the interface*.
  const dynamics_params params = make_params(6, 0.08, 0.64);
  constexpr std::uint64_t n = 1234;
  std::unique_ptr<dynamics_engine> agg = std::make_unique<aggregate_dynamics>(params, n);
  std::unique_ptr<dynamics_engine> fin =
      std::make_unique<finite_dynamics>(params, static_cast<std::size_t>(n));

  rng gen_a{2024};
  rng gen_f{2024};
  rng env_gen{99};
  std::vector<std::uint8_t> rewards(6);
  for (int t = 0; t < 400; ++t) {
    for (auto& x : rewards) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
    agg->step(rewards, gen_a);
    fin->step(rewards, gen_f);
    ASSERT_EQ(gen_a, gen_f) << "engines consumed the stream differently at t=" << t;
    const auto qa = agg->popularity();
    const auto qf = fin->popularity();
    const auto da = agg->adopter_counts();
    const auto df = fin->adopter_counts();
    for (std::size_t j = 0; j < 6; ++j) {
      ASSERT_EQ(da[j], df[j]) << "adopter counts diverged at t=" << t;
      ASSERT_DOUBLE_EQ(qa[j], qf[j]) << "popularity diverged at t=" << t;
    }
    EXPECT_EQ(agg->empty_steps(), fin->empty_steps());
  }
}

TEST(dynamics_engine, batched_choices_are_consistent_with_counts) {
  // The batched path materializes per-agent choices from the sampled
  // counts; they must tally exactly and respect stage counts.
  const dynamics_params params = make_params(4, 0.1, 0.65);
  finite_dynamics dyn{params, 5000};
  rng gen{21};
  rng env_gen{22};
  std::vector<std::uint8_t> rewards(4);
  for (int t = 0; t < 100; ++t) {
    for (auto& x : rewards) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
    dyn.step(rewards, gen);
    std::vector<std::uint64_t> tally(4, 0);
    std::uint64_t sitting_out = 0;
    for (const std::int32_t c : dyn.choices()) {
      if (c >= 0) {
        ++tally[static_cast<std::size_t>(c)];
      } else {
        ++sitting_out;
      }
    }
    std::uint64_t stage_total = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      ASSERT_EQ(tally[j], dyn.adopter_counts()[j]);
      ASSERT_LE(dyn.adopter_counts()[j], dyn.stage_counts()[j]);
      stage_total += dyn.stage_counts()[j];
    }
    ASSERT_EQ(stage_total, 5000U);
    ASSERT_EQ(sitting_out + dyn.adopters(), 5000U);
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
      [&] { return std::make_unique<finite_dynamics>(params, 500); },
      [&] {
        return std::make_unique<aggregate_dynamics>(
            params, std::vector<rule_group>{{500, {0.35, 0.65}}});
      },
  };

  run_config config;
  config.horizon = 60;
  config.replications = 8;
  config.seed = 5;
  const regret_probe scalars;
  const trajectory_probe curves;
  const probe* plain_probes[] = {&scalars};
  const probe* curved_probes[] = {&scalars, &curves};
  for (const auto& factory : factories) {
    const probe_list plain = run_with_probes(factory, env, config, plain_probes);
    ASSERT_EQ(plain.size(), 1U);
    const auto& plain_scalars = dynamic_cast<const regret_probe&>(*plain[0]);
    EXPECT_EQ(plain_scalars.regret_stats().count(), 8U);
    EXPECT_NEAR(plain_scalars.average_reward_stats().mean() +
                    plain_scalars.regret_stats().mean(),
                0.8, 1e-9);

    const probe_list curved = run_with_probes(factory, env, config, curved_probes);
    ASSERT_EQ(curved.size(), 2U);
    EXPECT_EQ(dynamic_cast<const trajectory_probe&>(*curved[1]).best_mass().length(), 60U);
    // Same seed => identical scalar estimates with or without curves.
    EXPECT_DOUBLE_EQ(dynamic_cast<const regret_probe&>(*curved[0]).regret_stats().mean(),
                     plain_scalars.regret_stats().mean());
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
