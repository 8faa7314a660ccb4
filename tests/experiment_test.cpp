#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/probe.h"
#include "env/reward_model.h"
#include "graph/graph.h"

namespace sgl::core {
namespace {

env_factory bernoulli_factory(std::vector<double> etas) {
  return [etas] { return std::make_unique<env::bernoulli_rewards>(etas); };
}

env_factory schedule_factory(std::vector<std::vector<std::uint8_t>> table) {
  return [table] { return std::make_unique<env::schedule_rewards>(table); };
}

dynamics_params make_params(std::size_t m, double mu, double beta) {
  dynamics_params p;
  p.num_options = m;
  p.mu = mu;
  p.beta = beta;
  return p;
}

/// The merged probe of a run with `prototype` as its only probe.
template <typename Probe>
Probe run_one(const engine_factory& engines, const env_factory& envs,
              const run_config& config, const Probe& prototype = {}) {
  const probe* probes[] = {&prototype};
  return dynamic_cast<const Probe&>(*run_with_probes(engines, envs, config, probes)[0]);
}

regret_probe run_regret(const engine_factory& engines, const env_factory& envs,
                        const run_config& config) {
  return run_one<regret_probe>(engines, envs, config);
}

trajectory_probe run_curves(const engine_factory& engines, const env_factory& envs,
                            const run_config& config) {
  return run_one<trajectory_probe>(engines, envs, config);
}

/// The agent-based engine (fully mixed, or on `topology` when given).
engine_factory agent_based(const dynamics_params& params, std::size_t num_agents,
                           const graph::graph* topology = nullptr) {
  return [params, num_agents, topology] {
    auto engine = std::make_unique<finite_dynamics>(params, num_agents);
    if (topology != nullptr) engine->set_topology(topology);
    return engine;
  };
}

TEST(infinite_regret, deterministic_schedule_matches_direct_simulation) {
  // On a fixed schedule the infinite dynamics is deterministic, so the
  // harness must reproduce a hand-rolled simulation exactly.
  const dynamics_params params = make_params(2, 0.1, 0.6);
  const std::vector<std::vector<std::uint8_t>> table{{1, 0}, {1, 1}, {0, 1}, {1, 0}};
  run_config config;
  config.horizon = 12;
  config.replications = 3;  // identical replications — CI must collapse
  config.seed = 42;

  const regret_probe est =
      run_regret(make_infinite_engine_factory(params), schedule_factory(table), config);

  // Direct simulation.
  infinite_dynamics dyn{params};
  env::schedule_rewards environment{table};
  rng dummy{0};
  std::vector<std::uint8_t> r(2);
  double reward_sum = 0.0;
  double best_mean_sum = 0.0;
  for (std::uint64_t t = 1; t <= config.horizon; ++t) {
    const auto p = dyn.distribution();
    environment.sample(t, dummy, r);
    reward_sum += p[0] * r[0] + p[1] * r[1];
    best_mean_sum += environment.best_mean(t);
    dyn.step(r);
  }
  const double expected_regret =
      (best_mean_sum - reward_sum) / static_cast<double>(config.horizon);

  EXPECT_NEAR(est.regret_stats().mean(), expected_regret, 1e-12);
  EXPECT_NEAR(confidence_interval(est.regret_stats()).half_width, 0.0, 1e-12);
  EXPECT_EQ(est.regret_stats().count(), 3U);
}

TEST(infinite_regret, thread_count_does_not_change_result) {
  const dynamics_params params = theorem_params(4, 0.62);
  run_config config;
  config.horizon = 60;
  config.replications = 40;
  config.seed = 7;

  const auto engines = make_infinite_engine_factory(params);
  const auto envs = bernoulli_factory({0.8, 0.4, 0.4, 0.4});
  config.threads = 1;
  const regret_probe one = run_regret(engines, envs, config);
  config.threads = 8;
  const regret_probe eight = run_regret(engines, envs, config);

  EXPECT_DOUBLE_EQ(one.regret_stats().mean(), eight.regret_stats().mean());
  EXPECT_DOUBLE_EQ(one.best_mass_stats().mean(), eight.best_mass_stats().mean());
  EXPECT_DOUBLE_EQ(one.average_reward_stats().mean(), eight.average_reward_stats().mean());
}

TEST(infinite_regret, nonuniform_start_biases_early_mass) {
  const dynamics_params params = theorem_params(2, 0.6);
  run_config config;
  config.horizon = 5;
  config.replications = 200;
  config.seed = 11;
  const auto factory = bernoulli_factory({0.8, 0.4});

  const std::vector<double> hostile{0.02, 0.98};  // nearly all mass on the bad option
  const regret_probe uniform =
      run_regret(make_infinite_engine_factory(params), factory, config);
  const regret_probe biased =
      run_regret(make_infinite_engine_factory(params, hostile), factory, config);
  EXPECT_GT(biased.regret_stats().mean(), uniform.regret_stats().mean());
  EXPECT_LT(biased.best_mass_stats().mean(), uniform.best_mass_stats().mean());
}

TEST(finite_regret, engines_agree_within_noise) {
  const dynamics_params params = theorem_params(3, 0.65);
  run_config config;
  config.horizon = 80;
  config.replications = 150;
  config.seed = 13;
  const auto factory = bernoulli_factory({0.8, 0.4, 0.4});

  const mean_ci agg = confidence_interval(
      run_regret(make_finite_engine_factory(params, 300), factory, config).regret_stats());
  const mean_ci agent = confidence_interval(
      run_regret(agent_based(params, 300), factory, config).regret_stats());
  EXPECT_NEAR(agg.mean, agent.mean, agg.half_width + agent.half_width + 0.01);
}

TEST(finite_regret, learning_beats_no_learning) {
  // beta = alpha (signal-blind adoption) must do worse than the real rule
  // on the same environment.
  run_config config;
  config.horizon = 150;
  config.replications = 80;
  config.seed = 17;
  const auto factory = bernoulli_factory({0.9, 0.3});

  const dynamics_params learning = theorem_params(2, 0.65);
  dynamics_params blind = learning;
  blind.alpha = blind.beta;  // adopt regardless of the signal

  const mean_ci with_signal = confidence_interval(
      run_regret(make_finite_engine_factory(learning, 500), factory, config).regret_stats());
  const mean_ci without_signal = confidence_interval(
      run_regret(make_finite_engine_factory(blind, 500), factory, config).regret_stats());
  EXPECT_LT(with_signal.mean + with_signal.half_width,
            without_signal.mean - without_signal.half_width);
}

TEST(finite_regret, topology_runs_and_converges) {
  const dynamics_params params = theorem_params(2, 0.62);
  rng topo_gen{99};
  const graph::graph g = graph::graph::watts_strogatz(150, 3, 0.1, topo_gen);
  run_config config;
  config.horizon = 200;
  config.replications = 30;
  config.seed = 19;
  const regret_probe est =
      run_regret(agent_based(params, 150, &g), bernoulli_factory({0.85, 0.35}), config);
  EXPECT_GT(est.final_best_mass_stats().mean(), 0.5);
  EXPECT_LT(est.regret_stats().mean(), 0.5);
}

TEST(run_with_probes, rejects_bad_configs) {
  const dynamics_params params = make_params(2, 0.1, 0.6);
  run_config config;
  config.horizon = 0;
  EXPECT_THROW(run_regret(make_infinite_engine_factory(params),
                          bernoulli_factory({0.5, 0.5}), config),
               std::invalid_argument);
  config.horizon = 10;
  config.replications = 0;
  EXPECT_THROW(run_regret(make_finite_engine_factory(params, 10),
                          bernoulli_factory({0.5, 0.5}), config),
               std::invalid_argument);
  config.replications = 1;
  EXPECT_THROW(run_regret(make_infinite_engine_factory(params),
                          bernoulli_factory({0.5, 0.5, 0.5}), config),
               std::invalid_argument);  // m mismatch
}

TEST(trajectories, curve_shapes_and_lengths) {
  const dynamics_params params = theorem_params(3, 0.62);
  run_config config;
  config.horizon = 120;
  config.replications = 60;
  config.seed = 23;
  const auto factory = bernoulli_factory({0.8, 0.4, 0.4});

  const trajectory_probe inf = run_curves(make_infinite_engine_factory(params), factory, config);
  EXPECT_EQ(inf.running_regret().length(), 120U);
  EXPECT_EQ(inf.best_mass().length(), 120U);
  EXPECT_EQ(inf.running_regret().replications(), 60U);
  // Learning: late best-mass above early best-mass.
  EXPECT_GT(inf.best_mass().mean(119), inf.best_mass().mean(0) + 0.2);
  // Regret curve settles below its early value.
  EXPECT_LT(inf.running_regret().mean(119), inf.running_regret().mean(5));

  const trajectory_probe fin =
      run_curves(make_finite_engine_factory(params, 400), factory, config);
  EXPECT_EQ(fin.best_mass().length(), 120U);
  EXPECT_GT(fin.best_mass().mean(119), 0.5);
  // min popularity stays strictly positive thanks to exploration.
  EXPECT_GT(fin.min_popularity().mean(119), 0.0);
}

TEST(trajectories, switching_environment_tracks_new_best) {
  // After the switch the dynamics must recover mass on the new best option.
  dynamics_params params = theorem_params(2, 0.65);
  run_config config;
  config.horizon = 300;
  config.replications = 40;
  config.seed = 29;
  const env_factory factory = [] {
    return std::make_unique<env::switching_rewards>(std::vector<double>{0.85, 0.35}, 150);
  };
  const trajectory_probe curves =
      run_curves(make_finite_engine_factory(params, 400), factory, config);
  // At t=150 the best option flips; best_mass (computed against the
  // *current* best) dips right after the switch and then recovers.
  EXPECT_GT(curves.best_mass().mean(140), 0.6);
  EXPECT_LT(curves.best_mass().mean(149), 0.5);
  EXPECT_GT(curves.best_mass().mean(295), 0.6);
}

}  // namespace
}  // namespace sgl::core
