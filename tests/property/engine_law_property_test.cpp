// Law-equivalence properties between engine kinds in degenerate corners —
// the bit-level identities (distributional equivalences live in the
// `statistical` tier: protocol_law_test, kernel_law_test).
//
// The one exact cross-engine identity the implementation promises is that
// the grouped engine with a single rule group IS the aggregate engine: one
// class, aggregate_dynamics, runs both, and a homogeneous population is the
// G = 1 case of the rule mixture, so both consume the process stream
// identically.  It is asserted here at both
// levels — raw engines fed shared streams, and whole specs through the
// Monte-Carlo harness — over randomly drawn parameters and populations.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "property/generators.h"
#include "property/property_harness.h"
#include "scenario/scenario.h"
#include "support/rng.h"

namespace {

using namespace sgl;

/// The adoption rule an aggregate engine actually runs: params.alpha with
/// the alpha = -1 convention resolved to 1 - beta (core/params.h).
core::adoption_rule resolved_rule(const core::dynamics_params& params) {
  const double alpha = params.alpha < 0.0 ? 1.0 - params.beta : params.alpha;
  return {alpha, params.beta};
}

std::vector<double> trajectory(core::dynamics_engine& engine, std::uint64_t seed) {
  rng reward_gen = rng::from_stream(seed, 0);
  rng process_gen = rng::from_stream(seed, 1);
  std::vector<std::uint8_t> rewards(engine.num_options());
  std::vector<double> out;
  for (std::uint64_t t = 1; t <= 40; ++t) {
    for (auto& r : rewards) r = reward_gen.next_bernoulli(0.55) ? 1 : 0;
    engine.step(rewards, process_gen);
    for (const double q : engine.popularity()) out.push_back(q);
  }
  out.push_back(static_cast<double>(engine.empty_steps()));
  out.push_back(static_cast<double>(engine.steps()));
  return out;
}

// Engine level: aggregate_dynamics(params, N) and aggregate_dynamics with
// the explicit single group (N, resolved rule) must walk identical
// trajectories from identical streams, for random parameters and
// populations.
TEST(engine_law_property, grouped_single_group_is_aggregate_bitwise) {
  const testgen::property_plan plan = testgen::property_run_plan(120);
  for (std::uint64_t i = 0; i < plan.iterations; ++i) {
    testgen::prng rng_state{plan.seed + 0x9e3779b9ULL * (i + 1)};
    core::dynamics_params params;
    params.num_options = rng_state.pick<std::size_t>({1, 2, 3, 5, 8});
    params.mu = rng_state.pick<double>({0.0, 0.05, 0.5, 1.0});
    params.beta = rng_state.pick<double>({0.0, 0.5, 0.625, 0.75, 1.0});
    params.alpha = params.beta >= 0.5 && rng_state.chance(0.5)
                       ? -1.0
                       : params.beta * static_cast<double>(rng_state.below(9)) / 8.0;
    const std::uint64_t population =
        rng_state.pick<std::uint64_t>({1, 2, 7, 100, 1000});
    SCOPED_TRACE("iteration " + std::to_string(i) + " (seed " +
                 std::to_string(plan.seed) + "), N=" + std::to_string(population));

    core::aggregate_dynamics aggregate{params, population};
    core::aggregate_dynamics grouped{
        params, std::vector<core::rule_group>{{population, resolved_rule(params)}}};
    EXPECT_EQ(trajectory(aggregate, 17 + i), trajectory(grouped, 17 + i));
  }
}

// Spec level: any drawn spec that resolves to the aggregate engine runs
// bit-identically when rewritten as an explicit single-group mixture —
// through run_probes, whole merged reports compared.  (Draws resolving to
// other engines pass vacuously; the corner table guarantees aggregate
// coverage on every run.)  Every probe is compared, the concentration and
// coupling probes included: they read the one group's rule, so a
// single-group mixture is measured exactly as its aggregate twin.
TEST(engine_law_property, aggregate_spec_equals_single_group_spec) {
  testgen::check_scenario_property(
      [](scenario::scenario_spec spec) -> std::string {
        try {
          if (scenario::resolved_engine(spec) != scenario::engine_kind::aggregate) {
            return {};
          }
          scenario::scenario_spec mixture = spec;
          mixture.engine = scenario::engine_kind::grouped;
          mixture.groups = {{spec.num_agents, resolved_rule(spec.params)}};
          const std::string validity = scenario::validate_spec_error(mixture);
          if (!validity.empty()) {
            return "single-group rewrite fails validate_spec: " + validity;
          }
          const core::run_config config = testgen::property_run_config();
          if (testgen::run_fingerprint(spec, config) !=
              testgen::run_fingerprint(mixture, config)) {
            return "aggregate spec and its single-group mixture diverge";
          }
          return {};
        } catch (const std::exception& error) {
          return std::string{"unexpected exception: "} + error.what();
        }
      },
      /*default_iterations=*/40);
}

// An agent_based spec with no graph and no per-agent rules is the same
// fully mixed count process, so it must report exactly what its aggregate
// twin reports — every probe, concentration and coupling included.
TEST(engine_law_property, aggregate_spec_equals_agent_based_spec) {
  testgen::check_scenario_property(
      [](scenario::scenario_spec spec) -> std::string {
        try {
          if (scenario::resolved_engine(spec) != scenario::engine_kind::aggregate) {
            return {};
          }
          scenario::scenario_spec agents = spec;
          agents.engine = scenario::engine_kind::agent_based;
          const std::string validity = scenario::validate_spec_error(agents);
          if (!validity.empty()) {
            return "agent_based rewrite fails validate_spec: " + validity;
          }
          const core::run_config config = testgen::property_run_config();
          if (testgen::run_fingerprint(spec, config) !=
              testgen::run_fingerprint(agents, config)) {
            return "aggregate spec and its agent_based twin diverge";
          }
          return {};
        } catch (const std::exception& error) {
          return std::string{"unexpected exception: "} + error.what();
        }
      },
      /*default_iterations=*/40);
}

}  // namespace
