#include "protocol/gossip_learner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/scenario.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl::protocol {
namespace {

gossip_params make_gossip(std::size_t m, double mu, double beta) {
  gossip_params p;
  p.dynamics.num_options = m;
  p.dynamics.mu = mu;
  p.dynamics.beta = beta;
  p.round_interval = 1.0;
  return p;
}

/// A fully mixed protocol-engine spec over `etas` with `nodes` gossipers.
scenario::scenario_spec gossip_spec(std::vector<double> etas, double mu, double beta,
                                    std::uint64_t nodes) {
  scenario::scenario_spec spec;
  spec.name = "gossip";
  spec.engine = scenario::engine_kind::protocol;
  spec.num_agents = nodes;
  spec.params.num_options = etas.size();
  spec.params.mu = mu;
  spec.params.beta = beta;
  spec.environment.etas = std::move(etas);
  return spec;
}

core::run_config gossip_run(std::uint64_t rounds, std::uint64_t seed) {
  core::run_config config;
  config.horizon = rounds;
  config.replications = 4;
  config.seed = seed;
  return config;
}

const std::vector<std::string> k_probes{"regret", "trajectory", "message_cost", "adoption"};

const core::regret_probe& regret_of(const core::probe_list& merged) {
  return dynamic_cast<const core::regret_probe&>(*merged[0]);
}

const core::trajectory_probe& curves_of(const core::probe_list& merged) {
  return dynamic_cast<const core::trajectory_probe&>(*merged[1]);
}

const core::message_cost_probe& cost_of(const core::probe_list& merged) {
  return dynamic_cast<const core::message_cost_probe&>(*merged[2]);
}

const core::adoption_probe& adoption_of(const core::probe_list& merged) {
  return dynamic_cast<const core::adoption_probe&>(*merged[3]);
}

/// Mean best-option share over rounds [from, horizon).
double late_best_mass(const core::probe_list& merged, std::size_t from) {
  const series_stats& best = curves_of(merged).best_mass();
  running_stats late;
  for (std::size_t t = from; t < best.length(); ++t) late.add(best.mean(t));
  return late.mean();
}

// --- gossip_learner ------------------------------------------------------------------

TEST(gossip_learner, validates_construction) {
  const posted_signals board{2};
  gossip_params params = make_gossip(2, 0.1, 0.6);
  EXPECT_NO_THROW(gossip_learner(params, &board));
  EXPECT_THROW(gossip_learner(params, nullptr), std::invalid_argument);
  params.round_interval = 0.0;
  EXPECT_THROW(gossip_learner(params, &board), std::invalid_argument);
  params = make_gossip(3, 0.1, 0.6);  // option-count mismatch with the board
  EXPECT_THROW(gossip_learner(params, &board), std::invalid_argument);
}

// --- the protocol under the harness ---------------------------------------------------

TEST(gossip_protocol, converges_to_best_channel) {
  const auto merged = scenario::run_probes(gossip_spec({0.9, 0.3, 0.3}, 0.05, 0.65, 150),
                                           gossip_run(150, 1), k_probes);
  EXPECT_GT(late_best_mass(merged, 100), 0.6);
  EXPECT_GT(cost_of(merged).messages_per_round_stats().mean(), 0.0);
  EXPECT_LT(regret_of(merged).regret_stats().mean(), 0.45);
}

TEST(gossip_protocol, survives_heavy_packet_loss) {
  scenario::scenario_spec spec = gossip_spec({0.9, 0.3}, 0.08, 0.65, 120);
  spec.protocol.drop_probability = 0.4;
  const auto merged = scenario::run_probes(spec, gossip_run(200, 2), k_probes);
  EXPECT_GT(cost_of(merged).drop_rate_stats().mean(), 0.3);
  EXPECT_GT(late_best_mass(merged, 150), 0.55) << "loss slows but must not stop convergence";
}

TEST(gossip_protocol, tolerates_crashes) {
  scenario::scenario_spec spec = gossip_spec({0.9, 0.3}, 0.08, 0.65, 100);
  scenario::fault_action_spec wave;
  wave.kind = scenario::fault_action_spec::action_kind::crash_wave;
  wave.at = 40.0;
  wave.fraction = 0.3;
  spec.faults.actions.push_back(wave);
  const auto merged = scenario::run_probes(spec, gossip_run(160, 4), k_probes);
  EXPECT_LT(adoption_of(merged).final_alive_fraction_stats().mean(), 0.9);
  EXPECT_GT(late_best_mass(merged, 120), 0.55);
}

TEST(gossip_protocol, works_on_ring_topology) {
  scenario::scenario_spec spec = gossip_spec({0.9, 0.3}, 0.05, 0.65, 60);
  spec.topology.family = scenario::topology_spec::family_kind::ring;
  const auto merged = scenario::run_probes(spec, gossip_run(250, 5), k_probes);
  EXPECT_GT(late_best_mass(merged, 200), 0.55);
}

TEST(gossip_protocol, non_sticky_mode_has_sitters) {
  const auto merged = scenario::run_probes(gossip_spec({0.8, 0.4}, 0.05, 0.6, 80),
                                           gossip_run(60, 3), k_probes);
  const double committed = adoption_of(merged).committed_fraction_stats().mean();
  EXPECT_LT(committed, 0.999);
  EXPECT_GT(committed, 0.3);
}

TEST(gossip_protocol, sticky_mode_never_leaves_the_committed_state) {
  // Stepping the engine directly: with sticky nodes and no crashes, a
  // committed node only ever switches options, so the adopter count can
  // grow (uncommitted nodes joining) but never shrink.
  scenario::scenario_spec spec = gossip_spec({0.8, 0.4}, 0.05, 0.6, 80);
  spec.protocol.sticky = true;
  const auto engine = scenario::make_engine(spec)();
  const auto environment = scenario::make_environment(spec.environment)();
  rng reward_gen = rng::from_stream(3, 0);
  rng process_gen = rng::from_stream(3, 1);
  std::vector<std::uint8_t> rewards(2);
  std::uint64_t previous = 0;
  std::uint64_t after_first_round = 0;
  for (std::uint64_t t = 1; t <= 60; ++t) {
    environment->sample(t, reward_gen, rewards);
    engine->step(rewards, process_gen);
    std::uint64_t adopters = 0;
    for (const std::uint64_t count : engine->adopter_counts()) adopters += count;
    EXPECT_GE(adopters, previous) << "round " << t;
    if (t == 1) after_first_round = adopters;
    previous = adopters;
  }
  EXPECT_LT(after_first_round, 80U) << "nodes start uncommitted";
  EXPECT_EQ(previous, 80U) << "every node commits within 60 rounds";
}

TEST(gossip_protocol, retries_recover_adopter_conditioned_sampling) {
  // With retries the requester keeps asking until it finds a committed
  // neighbour (popularity over adopters); without them every uncommitted
  // reply falls back to a uniform option, injecting extra exploration and
  // flattening convergence.  Measured as late best-option share.
  scenario::scenario_spec spec = gossip_spec({0.9, 0.3}, 0.05, 0.65, 150);
  spec.protocol.max_retries = 4;
  const auto with_retries = scenario::run_probes(spec, gossip_run(150, 7), k_probes);
  spec.protocol.max_retries = 0;
  const auto without_retries = scenario::run_probes(spec, gossip_run(150, 7), k_probes);

  EXPECT_GT(late_best_mass(with_retries, 100), late_best_mass(without_retries, 100) + 0.05);
  // Retries cost extra messages.
  EXPECT_GT(cost_of(with_retries).messages_per_round_stats().mean(),
            cost_of(without_retries).messages_per_round_stats().mean());
}

TEST(gossip_protocol, same_seed_gives_identical_reports) {
  const scenario::scenario_spec spec = gossip_spec({0.8, 0.4}, 0.1, 0.6, 40);
  const auto a = core::collect_reports(scenario::run_probes(spec, gossip_run(50, 6), k_probes));
  const auto b = core::collect_reports(scenario::run_probes(spec, gossip_run(50, 6), k_probes));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].scalars.size(), b[i].scalars.size());
    for (std::size_t k = 0; k < a[i].scalars.size(); ++k) {
      EXPECT_EQ(a[i].scalars[k].value, b[i].scalars[k].value) << a[i].scalars[k].key;
    }
    ASSERT_EQ(a[i].series.size(), b[i].series.size());
    for (std::size_t k = 0; k < a[i].series.size(); ++k) {
      EXPECT_EQ(a[i].series[k].values, b[i].series[k].values) << a[i].series[k].key;
    }
  }
}

}  // namespace
}  // namespace sgl::protocol
