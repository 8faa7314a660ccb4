#include "core/experiment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/probe.h"
#include "env/reward_model.h"
#include "graph/graph.h"
#include "identical_agents.h"

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

/// The report of a run with the probe `spec` as its only probe.
probe_report run_report(const engine_factory& engines, const env_factory& envs,
                        const run_config& config, std::string_view spec) {
  const std::unique_ptr<probe> prototype = make_probe(spec);
  const probe* probes[] = {prototype.get()};
  return run_with_probes(engines, envs, config, probes)[0]->report();
}

probe_report run_regret(const engine_factory& engines, const env_factory& envs,
                        const run_config& config) {
  return run_report(engines, envs, config, "regret");
}

probe_report run_curves(const engine_factory& engines, const env_factory& envs,
                        const run_config& config) {
  return run_report(engines, envs, config, "trajectory");
}

double scalar(const probe_report& report, std::string_view key) {
  const probe_scalar* found = report.find_scalar(key);
  if (found == nullptr) throw std::logic_error{"no scalar " + std::string{key}};
  return found->value;
}

/// The agent-based engine on `topology`, or fully mixed with every agent
/// holding the params' rule.
engine_factory agent_based(const dynamics_params& params, std::size_t num_agents,
                           std::shared_ptr<const graph::graph> topology = nullptr) {
  return [params, num_agents, topology] {
    if (topology == nullptr) {
      return std::make_unique<finite_dynamics>(identical_agents(params, num_agents));
    }
    return std::make_unique<finite_dynamics>(params, num_agents, topology);
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

  const probe_report est =
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

  EXPECT_NEAR(scalar(est, "regret"), expected_regret, 1e-12);
  EXPECT_NEAR(est.find_scalar("regret")->half_width, 0.0, 1e-12);
  EXPECT_EQ(scalar(est, "replications"), 3.0);
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
  const probe_report one = run_regret(engines, envs, config);
  config.threads = 8;
  const probe_report eight = run_regret(engines, envs, config);

  EXPECT_DOUBLE_EQ(scalar(one, "regret"), scalar(eight, "regret"));
  EXPECT_DOUBLE_EQ(scalar(one, "best_mass"), scalar(eight, "best_mass"));
  EXPECT_DOUBLE_EQ(scalar(one, "average_reward"), scalar(eight, "average_reward"));
}

TEST(infinite_regret, nonuniform_start_biases_early_mass) {
  const dynamics_params params = theorem_params(2, 0.6);
  run_config config;
  config.horizon = 5;
  config.replications = 200;
  config.seed = 11;
  const auto factory = bernoulli_factory({0.8, 0.4});

  const std::vector<double> hostile{0.02, 0.98};  // nearly all mass on the bad option
  const probe_report uniform = run_regret(make_infinite_engine_factory(params), factory, config);
  const probe_report biased =
      run_regret(make_infinite_engine_factory(params, hostile), factory, config);
  EXPECT_GT(scalar(biased, "regret"), scalar(uniform, "regret"));
  EXPECT_LT(scalar(biased, "best_mass"), scalar(uniform, "best_mass"));
}

TEST(finite_regret, engines_agree_within_noise) {
  const dynamics_params params = theorem_params(3, 0.65);
  run_config config;
  config.horizon = 80;
  config.replications = 150;
  config.seed = 13;
  const auto factory = bernoulli_factory({0.8, 0.4, 0.4});

  const probe_scalar agg =
      *run_regret(make_finite_engine_factory(params, 300), factory, config).find_scalar("regret");
  const probe_scalar agent =
      *run_regret(agent_based(params, 300), factory, config).find_scalar("regret");
  EXPECT_NEAR(agg.value, agent.value, agg.half_width + agent.half_width + 0.01);
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

  const probe_scalar with_signal =
      *run_regret(make_finite_engine_factory(learning, 500), factory, config).find_scalar("regret");
  const probe_scalar without_signal =
      *run_regret(make_finite_engine_factory(blind, 500), factory, config).find_scalar("regret");
  EXPECT_LT(with_signal.value + with_signal.half_width,
            without_signal.value - without_signal.half_width);
}

TEST(finite_regret, topology_runs_and_converges) {
  const dynamics_params params = theorem_params(2, 0.62);
  rng topo_gen{99};
  const auto g = std::make_shared<const graph::graph>(
      graph::graph::watts_strogatz(150, 3, 0.1, topo_gen));
  run_config config;
  config.horizon = 200;
  config.replications = 30;
  config.seed = 19;
  const probe_report est =
      run_regret(agent_based(params, 150, g), bernoulli_factory({0.85, 0.35}), config);
  EXPECT_GT(scalar(est, "final_best_mass"), 0.5);
  EXPECT_LT(scalar(est, "regret"), 0.5);
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

/// Every scalar and series value of the probes' reports as hex floats, so
/// equal text means bit-equal results.
std::string dump(const probe_list& probes) {
  std::string out;
  const auto append = [&out](double value) {
    char text[40];
    std::snprintf(text, sizeof text, " %a", value);
    out += text;
  };
  for (const auto& probe : probes) {
    const probe_report report = probe->report();
    out += report.probe;
    for (const auto& scalar : report.scalars) {
      out += ' ' + scalar.key;
      append(scalar.value);
      append(scalar.half_width);
    }
    for (const auto& series : report.series) {
      out += ' ' + series.key;
      for (const double value : series.values) append(value);
    }
    out += '\n';
  }
  return out;
}

/// Two runs that share nothing: engine, environment, option count, probes.
std::vector<run_request> two_runs() {
  const std::vector<std::string> first_probes{"regret", "trajectory"};
  const std::vector<std::string> second_probes{"regret", "hitting_time(eps=0.25)"};
  std::vector<run_request> runs(2);
  runs[0].make_engine = make_finite_engine_factory(theorem_params(3, 0.65), 200);
  runs[0].make_env = bernoulli_factory({0.8, 0.5, 0.3});
  runs[0].prototypes = make_probes(first_probes);
  runs[1].make_engine = make_infinite_engine_factory(theorem_params(2, 0.62));
  runs[1].make_env = bernoulli_factory({0.7, 0.4});
  runs[1].prototypes = make_probes(second_probes);
  return runs;
}

TEST(run_points, runs_scheduled_together_equal_each_run_alone) {
  run_config config;
  config.horizon = 40;
  config.replications = 9;
  config.seed = 17;
  config.threads = 1;

  std::vector<std::string> alone;
  for (run_request& run : two_runs()) {
    std::vector<const probe*> prototypes;
    for (const auto& prototype : run.prototypes) prototypes.push_back(prototype.get());
    alone.push_back(dump(run_with_probes(run.make_engine, run.make_env, config, prototypes)));
  }
  ASSERT_NE(alone[0], alone[1]);

  for (const unsigned threads : {1U, 4U}) {
    config.threads = threads;
    std::vector<std::string> together(2);
    std::vector<int> deliveries(2, 0);
    const std::size_t delivered =
        run_points(two_runs(), config, [&](std::size_t index, probe_list&& merged, double) {
          ++deliveries[index];
          together[index] = dump(merged);
        });
    EXPECT_EQ(delivered, 2U);
    EXPECT_EQ(deliveries, (std::vector<int>{1, 1})) << "threads=" << threads;
    EXPECT_EQ(together, alone) << "threads=" << threads;
  }
}

TEST(run_points, cancelled_before_start_delivers_nothing_and_builds_nothing) {
  std::atomic<int> factory_calls{0};
  std::vector<run_request> runs = two_runs();
  for (run_request& run : runs) {
    run.make_engine = [&factory_calls, inner = run.make_engine] {
      ++factory_calls;
      return inner();
    };
    run.make_env = [&factory_calls, inner = run.make_env] {
      ++factory_calls;
      return inner();
    };
  }
  run_config config;
  config.horizon = 10;
  config.replications = 70;
  config.threads = 4;
  const std::atomic<bool> cancel{true};
  bool called = false;
  const std::size_t delivered = run_points(
      std::move(runs), config, [&called](std::size_t, probe_list&&, double) { called = true; },
      &cancel);
  EXPECT_EQ(delivered, 0U);
  EXPECT_FALSE(called);
  EXPECT_EQ(factory_calls.load(), 0);
}

TEST(trajectories, curve_shapes_and_lengths) {
  const dynamics_params params = theorem_params(3, 0.62);
  run_config config;
  config.horizon = 120;
  config.replications = 60;
  config.seed = 23;
  const auto factory = bernoulli_factory({0.8, 0.4, 0.4});

  const probe_report inf = run_curves(make_infinite_engine_factory(params), factory, config);
  const probe_series* inf_regret = inf.find_series("running_regret_mean");
  const probe_series* inf_best = inf.find_series("best_mass_mean");
  ASSERT_NE(inf_regret, nullptr);
  ASSERT_NE(inf_best, nullptr);
  EXPECT_EQ(inf_regret->values.size(), 120U);
  EXPECT_EQ(inf_best->values.size(), 120U);
  EXPECT_EQ(scalar(inf, "replications"), 60.0);
  // Learning: late best-mass above early best-mass.
  EXPECT_GT(inf_best->values[119], inf_best->values[0] + 0.2);
  // Regret curve settles below its early value.
  EXPECT_LT(inf_regret->values[119], inf_regret->values[5]);

  const probe_report fin = run_curves(make_finite_engine_factory(params, 400), factory, config);
  const probe_series* fin_best = fin.find_series("best_mass_mean");
  const probe_series* fin_min_popularity = fin.find_series("min_popularity_mean");
  ASSERT_NE(fin_best, nullptr);
  ASSERT_NE(fin_min_popularity, nullptr);
  EXPECT_EQ(fin_best->values.size(), 120U);
  EXPECT_GT(fin_best->values[119], 0.5);
  // min popularity stays strictly positive thanks to exploration.
  EXPECT_GT(fin_min_popularity->values[119], 0.0);
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
  const probe_report curves =
      run_curves(make_finite_engine_factory(params, 400), factory, config);
  const probe_series* best = curves.find_series("best_mass_mean");
  ASSERT_NE(best, nullptr);
  ASSERT_EQ(best->values.size(), 300U);
  // At t=150 the best option flips; best_mass (computed against the
  // *current* best) dips right after the switch and then recovers.
  EXPECT_GT(best->values[140], 0.6);
  EXPECT_LT(best->values[149], 0.5);
  EXPECT_GT(best->values[295], 0.6);
}

}  // namespace
}  // namespace sgl::core
