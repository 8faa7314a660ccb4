#include "protocol/gossip_learner.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/scenario.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl::protocol {
namespace {

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

/// The reports of a run of `spec` with k_probes, in k_probes' order.
std::vector<core::probe_report> run_reports(const scenario::scenario_spec& spec,
                                            const core::run_config& config) {
  return core::collect_reports(scenario::run_probes(spec, config, k_probes));
}

double scalar(const core::probe_report& report, std::string_view key) {
  const core::probe_scalar* found = report.find_scalar(key);
  if (found == nullptr) throw std::logic_error{"no scalar " + std::string{key}};
  return found->value;
}

/// Mean best-option share over rounds [from, horizon).
double late_best_mass(const std::vector<core::probe_report>& reports, std::size_t from) {
  const std::vector<double>& best = reports[1].find_series("best_mass_mean")->values;
  running_stats late;
  for (std::size_t t = from; t < best.size(); ++t) late.add(best[t]);
  return late.mean();
}

// --- gossip_learner ------------------------------------------------------------------

TEST(gossip_learner, validates_construction) {
  const posted_signals board{2};
  const protocol_config protocol;
  core::dynamics_params dynamics;
  EXPECT_NO_THROW(gossip_learner(dynamics, protocol, &board));
  EXPECT_THROW(gossip_learner(dynamics, protocol, nullptr), std::invalid_argument);
  dynamics.num_options = 3;  // option-count mismatch with the board
  EXPECT_THROW(gossip_learner(dynamics, protocol, &board), std::invalid_argument);
}

// --- the protocol under the harness ---------------------------------------------------

TEST(gossip_protocol, converges_to_best_channel) {
  const auto reports =
      run_reports(gossip_spec({0.9, 0.3, 0.3}, 0.05, 0.65, 150), gossip_run(150, 1));
  EXPECT_GT(late_best_mass(reports, 100), 0.6);
  EXPECT_GT(scalar(reports[2], "messages_per_round"), 0.0);
  EXPECT_LT(scalar(reports[0], "regret"), 0.45);
}

TEST(gossip_protocol, survives_heavy_packet_loss) {
  scenario::scenario_spec spec = gossip_spec({0.9, 0.3}, 0.08, 0.65, 120);
  spec.protocol.drop_probability = 0.4;
  const auto reports = run_reports(spec, gossip_run(200, 2));
  EXPECT_GT(scalar(reports[2], "drop_rate"), 0.3);
  EXPECT_GT(late_best_mass(reports, 150), 0.55) << "loss slows but must not stop convergence";
}

TEST(gossip_protocol, tolerates_crashes) {
  scenario::scenario_spec spec = gossip_spec({0.9, 0.3}, 0.08, 0.65, 100);
  scenario::fault_action_spec wave;
  wave.kind = scenario::fault_action_spec::action_kind::crash_wave;
  wave.at = 40.0;
  wave.fraction = 0.3;
  spec.faults.actions.push_back(wave);
  const auto reports = run_reports(spec, gossip_run(160, 4));
  EXPECT_LT(scalar(reports[3], "final_alive_fraction"), 0.9);
  EXPECT_GT(late_best_mass(reports, 120), 0.55);
}

TEST(gossip_protocol, works_on_ring_topology) {
  scenario::scenario_spec spec = gossip_spec({0.9, 0.3}, 0.05, 0.65, 60);
  spec.topology.family = scenario::topology_spec::family_kind::ring;
  const auto reports = run_reports(spec, gossip_run(250, 5));
  EXPECT_GT(late_best_mass(reports, 200), 0.55);
}

TEST(gossip_protocol, non_sticky_mode_has_sitters) {
  const auto reports = run_reports(gossip_spec({0.8, 0.4}, 0.05, 0.6, 80), gossip_run(60, 3));
  const double committed = scalar(reports[3], "committed_fraction");
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
  const auto with_retries = run_reports(spec, gossip_run(150, 7));
  spec.protocol.max_retries = 0;
  const auto without_retries = run_reports(spec, gossip_run(150, 7));

  EXPECT_GT(late_best_mass(with_retries, 100), late_best_mass(without_retries, 100) + 0.05);
  // Retries cost extra messages.
  EXPECT_GT(scalar(with_retries[2], "messages_per_round"),
            scalar(without_retries[2], "messages_per_round"));
}

TEST(gossip_protocol, same_seed_gives_identical_reports) {
  const scenario::scenario_spec spec = gossip_spec({0.8, 0.4}, 0.1, 0.6, 40);
  const auto a = run_reports(spec, gossip_run(50, 6));
  const auto b = run_reports(spec, gossip_run(50, 6));
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
