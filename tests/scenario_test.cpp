// Tests for the scenario layer: registry lookup, engine/environment
// resolution, topology construction, validation, and an end-to-end run of
// every registered scenario through the generic harness.

#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/probe.h"
#include "scenario/registry.h"
#include "scenario/serialize.h"
#include "support/rng.h"

namespace sgl::scenario {
namespace {

/// The regret probe's report after a run of `spec`.
core::probe_report run_regret(const scenario_spec& spec, const core::run_config& config) {
  const std::vector<std::string> regret_only{"regret"};
  return run_probes(spec, config, regret_only)[0]->report();
}

TEST(registry, names_are_unique_and_lookup_works) {
  std::set<std::string> names;
  for (const auto& spec : all_scenarios()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.description.empty());
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate name " << spec.name;
    EXPECT_EQ(scenario_fields(get_scenario(spec.name)), scenario_fields(spec));
  }
  EXPECT_GE(names.size(), 10U);
  EXPECT_THROW((void)get_scenario("no-such-scenario"), std::invalid_argument);
}

TEST(registry, every_scenario_runs_end_to_end) {
  core::run_config config;
  config.horizon = 25;
  config.replications = 2;
  config.seed = 3;
  config.threads = 1;
  for (const auto& spec : all_scenarios()) {
    const core::probe_report result = run_regret(spec, config);
    EXPECT_EQ(result.find_scalar("replications")->value, 2.0) << spec.name;
    EXPECT_GE(result.find_scalar("average_reward")->value, 0.0) << spec.name;
    EXPECT_LE(result.find_scalar("average_reward")->value, 1.0) << spec.name;
  }
}

TEST(registry, runs_are_deterministic_given_the_seed) {
  const scenario_spec spec = get_scenario("theorem-finite");
  core::run_config config;
  config.horizon = 40;
  config.replications = 6;
  config.seed = 11;
  const core::probe_report a = run_regret(spec, config);
  config.threads = 1;
  const core::probe_report b = run_regret(spec, config);
  EXPECT_DOUBLE_EQ(a.find_scalar("regret")->value, b.find_scalar("regret")->value);
  EXPECT_DOUBLE_EQ(a.find_scalar("final_best_mass")->value,
                   b.find_scalar("final_best_mass")->value);
}

TEST(scenario, auto_select_resolves_by_spec_shape) {
  scenario_spec spec;
  spec.params = core::theorem_params(2, 0.65);
  spec.environment.etas = {0.8, 0.4};

  // Plain finite population -> aggregate; N = 0 -> infinite; topology or
  // per-agent rules -> agent-based; groups -> grouped.  We can't observe the
  // kind directly, but each combination must at least build and step.
  rng gen{1};
  const std::vector<std::uint8_t> rewards{1, 0};

  spec.num_agents = 100;
  auto engine = make_engine(spec)();
  engine->step(rewards, gen);
  EXPECT_FALSE(engine->adopter_counts().empty());

  spec.num_agents = 0;
  engine = make_engine(spec)();
  engine->step(rewards, gen);
  EXPECT_TRUE(engine->adopter_counts().empty());  // infinite engine

  spec.num_agents = 100;
  spec.topology.family = topology_spec::family_kind::ring;
  engine = make_engine(spec)();
  engine->step(rewards, gen);
  EXPECT_FALSE(engine->adopter_counts().empty());
  spec.topology.family = topology_spec::family_kind::none;

  spec.groups = {{60, {0.2, 0.8}}, {40, {0.35, 0.65}}};
  engine = make_engine(spec)();
  engine->step(rewards, gen);
  const auto counts = engine->adopter_counts();
  EXPECT_LE(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}), 100U);
}

TEST(scenario, topology_requires_agent_based_engine) {
  scenario_spec spec;
  spec.params = core::theorem_params(2, 0.65);
  spec.environment.etas = {0.8, 0.4};
  spec.num_agents = 50;
  spec.topology.family = topology_spec::family_kind::ring;
  spec.engine = engine_kind::aggregate;
  EXPECT_THROW((void)make_engine(spec), std::invalid_argument);
  spec.engine = engine_kind::agent_based;
  EXPECT_NO_THROW((void)make_engine(spec)());
}

TEST(scenario, build_topology_families) {
  topology_spec spec;
  spec.family = topology_spec::family_kind::ring;
  EXPECT_EQ(build_topology(spec, 10).num_edges(), 10U);

  spec.family = topology_spec::family_kind::complete;
  EXPECT_EQ(build_topology(spec, 10).num_edges(), 45U);

  spec.family = topology_spec::family_kind::torus;
  const auto torus = build_topology(spec, 36);  // 6x6 auto-factorization
  EXPECT_EQ(torus.num_vertices(), 36U);
  EXPECT_EQ(torus.min_degree(), 4U);
  // N = 0 is refused before the square-ish factorization (rows = 0).
  EXPECT_THROW((void)build_topology(spec, 0), std::invalid_argument);

  spec.family = topology_spec::family_kind::two_cliques;
  EXPECT_TRUE(build_topology(spec, 20).is_connected());
  EXPECT_THROW((void)build_topology(spec, 21), std::invalid_argument);  // odd N

  spec.family = topology_spec::family_kind::grid;
  spec.rows = 3;
  spec.cols = 5;
  EXPECT_EQ(build_topology(spec, 15).num_vertices(), 15U);
  EXPECT_THROW((void)build_topology(spec, 16), std::invalid_argument);
  spec.rows = 0;
  spec.cols = 0;
  EXPECT_THROW((void)build_topology(spec, 0), std::invalid_argument);

  spec.family = topology_spec::family_kind::none;
  EXPECT_THROW((void)build_topology(spec, 10), std::invalid_argument);
}

TEST(scenario, generated_topology_is_deterministic_and_owned) {
  scenario_spec spec;
  spec.params = core::theorem_params(2, 0.65);
  spec.environment.etas = {0.8, 0.4};
  spec.num_agents = 60;
  spec.engine = engine_kind::agent_based;
  spec.topology.family = topology_spec::family_kind::watts_strogatz;
  spec.topology.degree = 3;
  spec.topology.seed = 42;

  // The factory owns the generated graph: engines stay valid after the
  // factory produced them, and two runs with the same seed agree.
  const auto factory = make_engine(spec);
  auto engine_a = factory();
  auto engine_b = factory();
  rng gen_a{9};
  rng gen_b{9};
  const std::vector<std::uint8_t> rewards{1, 0};
  for (int t = 0; t < 30; ++t) {
    engine_a->step(rewards, gen_a);
    engine_b->step(rewards, gen_b);
  }
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_DOUBLE_EQ(engine_a->popularity()[j], engine_b->popularity()[j]);
  }
}

TEST(scenario, prebuilt_graph_is_used_verbatim) {
  scenario_spec spec;
  spec.params = core::theorem_params(2, 0.65);
  spec.environment.etas = {0.8, 0.4};
  spec.num_agents = 40;
  spec.topology.family = topology_spec::family_kind::ring;
  // Hand the factory a star instead; the ring spec must be ignored.
  spec.prebuilt_graph =
      std::make_shared<const graph::graph>(graph::graph::star(40));

  const auto engine = make_engine(spec)();
  rng gen{4};
  const std::vector<std::uint8_t> rewards{1, 0};
  engine->step(rewards, gen);
  EXPECT_EQ(engine->steps(), 1U);

  // Vertex-count mismatch is caught by the engine constructor at build time.
  spec.prebuilt_graph =
      std::make_shared<const graph::graph>(graph::graph::star(10));
  EXPECT_THROW((void)make_engine(spec)(), std::invalid_argument);
}

TEST(scenario, resolved_engine_matches_spec_shape) {
  scenario_spec spec;
  spec.params = core::theorem_params(2, 0.65);
  spec.num_agents = 100;
  EXPECT_EQ(resolved_engine(spec), engine_kind::aggregate);
  spec.num_agents = 0;
  EXPECT_EQ(resolved_engine(spec), engine_kind::infinite);
  spec.num_agents = 100;
  spec.topology.family = topology_spec::family_kind::ring;
  EXPECT_EQ(resolved_engine(spec), engine_kind::agent_based);
  spec.topology.family = topology_spec::family_kind::none;
  spec.groups = {{100, {0.35, 0.65}}};
  EXPECT_EQ(resolved_engine(spec), engine_kind::grouped);
  spec.engine = engine_kind::agent_based;
  EXPECT_EQ(resolved_engine(spec), engine_kind::agent_based);  // explicit wins
}

TEST(scenario, environment_families_build) {
  environment_spec spec;
  spec.etas = {0.8, 0.4};
  rng gen{1};
  std::vector<std::uint8_t> out(2);

  spec.family = environment_spec::family_kind::bernoulli;
  EXPECT_EQ(make_environment(spec)()->num_options(), 2U);

  spec.family = environment_spec::family_kind::exclusive;
  spec.etas = {0.7, 0.3};
  auto exclusive = make_environment(spec)();
  exclusive->sample(1, gen, out);
  EXPECT_EQ(out[0] + out[1], 1);

  spec.family = environment_spec::family_kind::switching;
  spec.etas = {0.8, 0.4};
  spec.period = 10;
  EXPECT_FALSE(make_environment(spec)()->is_stationary());

  spec.family = environment_spec::family_kind::drifting;
  spec.end_etas = {0.4, 0.8};
  spec.horizon = 100;
  auto drifting = make_environment(spec)();
  EXPECT_NEAR(drifting->mean(100, 0), 0.4, 1e-9);
}

}  // namespace
}  // namespace sgl::scenario
