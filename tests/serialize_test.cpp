// Tests for the scenario text format: round-trip over the ENTIRE registry
// (field-exact and run-bit-identical), the --set override grammar, and the
// --sweep axis grammar, including the error paths.

#include "scenario/serialize.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace sgl::scenario {
namespace {

TEST(serialize, round_trip_is_field_exact_over_the_whole_registry) {
  for (const auto& spec : all_scenarios()) {
    const std::string text = serialize_scenario(spec);
    const scenario_spec parsed = parse_scenario(text);
    EXPECT_EQ(scenario_fields(spec), scenario_fields(parsed)) << spec.name;
    // Serialization is canonical: a second round trip is textually stable.
    EXPECT_EQ(text, serialize_scenario(parsed)) << spec.name;
  }
}

TEST(serialize, round_trip_runs_bit_identically_over_the_whole_registry) {
  const std::vector<std::string> regret_only{"regret"};
  for (const auto& spec : all_scenarios()) {
    core::run_config config;
    config.seed = 19;
    config.threads = 2;
    // Large populations get a minimal config so the full-registry sweep
    // stays fast; bit-identicality is config-independent.
    const bool large = spec.num_agents >= 100000;
    config.horizon = large ? 4 : 12;
    config.replications = large ? 1 : 2;

    const scenario_spec parsed = parse_scenario(serialize_scenario(spec));
    const core::probe_report original = run_probes(spec, config, regret_only)[0]->report();
    const core::probe_report reparsed = run_probes(parsed, config, regret_only)[0]->report();
    ASSERT_EQ(original.scalars.size(), reparsed.scalars.size()) << spec.name;
    for (std::size_t i = 0; i < original.scalars.size(); ++i) {
      EXPECT_EQ(original.scalars[i].key, reparsed.scalars[i].key) << spec.name;
      EXPECT_EQ(original.scalars[i].value, reparsed.scalars[i].value)
          << spec.name << " " << original.scalars[i].key;
      EXPECT_EQ(original.scalars[i].half_width, reparsed.scalars[i].half_width)
          << spec.name << " " << original.scalars[i].key;
    }
  }
}

TEST(serialize, groups_and_rules_round_trip) {
  scenario_spec spec;
  spec.name = "grouped";
  spec.params = core::theorem_params(2, 0.65);
  spec.environment.etas = {0.8, 0.4};
  spec.groups = {{60, {0.2, 0.8}}, {40, {0.35, 0.65}}};
  spec.agent_rules = {{0.1, 0.9}, {0.3, 0.7}};
  const scenario_spec parsed = parse_scenario(serialize_scenario(spec));
  ASSERT_EQ(parsed.groups.size(), 2U);
  EXPECT_EQ(parsed.groups[0].size, 60U);
  EXPECT_EQ(parsed.groups[0].rule.alpha, 0.2);
  EXPECT_EQ(parsed.groups[1].rule.beta, 0.65);
  ASSERT_EQ(parsed.agent_rules.size(), 2U);
  EXPECT_EQ(parsed.agent_rules[1].alpha, 0.3);
}

TEST(parse_scenario, partial_specs_keep_defaults_and_allow_comments) {
  const scenario_spec parsed = parse_scenario(
      "# comment-only line\n"
      "name = \"partial\"   # trailing comment\n"
      "\n"
      "params.beta = 0.7\n"
      "environment.etas = [0.9, 0.3]\n");
  EXPECT_EQ(parsed.name, "partial");
  EXPECT_EQ(parsed.params.beta, 0.7);
  ASSERT_EQ(parsed.environment.etas.size(), 2U);
  // Untouched fields keep scenario_spec defaults.
  EXPECT_EQ(parsed.num_agents, 1000U);
  EXPECT_EQ(parsed.engine, engine_kind::auto_select);
}

TEST(parse_scenario, quoted_strings_handle_escapes_exactly) {
  // An escaped backslash before the closing quote must not hide the quote
  // from the comment stripper.
  const scenario_spec parsed = parse_scenario("name = \"a\\\\\" # note\n");
  EXPECT_EQ(parsed.name, "a\\");

  // A backslash that escapes the would-be closing quote leaves the string
  // unterminated.
  EXPECT_THROW((void)parse_scenario("name = \"abc\\\"\n"), std::invalid_argument);
  // Text after the closing quote is an error, not silently dropped.
  EXPECT_THROW((void)parse_scenario("name = \"abc\" def\n"), std::invalid_argument);
  // A lone trailing backslash is a dangling escape.
  scenario_spec spec;
  EXPECT_THROW(apply_override(spec, "name", "\"abc\\"), std::invalid_argument);

  // Escaped quotes and separators survive an array round trip.
  spec.probes = {"with \"quote\"", "with, comma"};
  const scenario_spec round = parse_scenario(serialize_scenario(spec));
  EXPECT_EQ(round.probes, spec.probes);

  // \uXXXX escapes parse (json_escape emits them for control characters,
  // and ensure_ascii JSON encoders emit them for everything non-ASCII).
  EXPECT_EQ(parse_scenario("name = \"\\u0041\\u00e9\"\n").name, "A\xc3\xa9");
  scenario_spec control;
  control.name = std::string{"a\x01z"};
  EXPECT_EQ(parse_scenario(serialize_scenario(control)).name, control.name);
  EXPECT_THROW((void)parse_scenario("name = \"\\u00\"\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("name = \"\\ud800x\"\n"), std::invalid_argument);
  // JSON's other escapes parse too, and a surrogate pair decodes to one
  // 4-byte UTF-8 character that round-trips through the canonical form.
  EXPECT_EQ(parse_scenario("name = \"\\/\\b\\f\"\n").name, "/\b\f");
  const scenario_spec emoji = parse_scenario("name = \"\\ud83d\\ude00!\"\n");
  EXPECT_EQ(emoji.name, "\xf0\x9f\x98\x80!");
  EXPECT_EQ(parse_scenario(serialize_scenario(emoji)).name, emoji.name);
  // A raw control character in a quoted string is refused.
  EXPECT_THROW((void)parse_scenario("name = \"a\x01z\"\n"), std::invalid_argument);
}

TEST(parse_scenario, arrays_refuse_non_json_elements_naming_the_key) {
  // An array is a JSON array of JSON values: a bare token, a non-JSON
  // number or an element of the wrong type is refused, naming the key.
  for (const std::string line :
       {"probes = [regret]", "probes = [\"regret\", hitting_time]", "probes = [1]",
        "environment.etas = [.5, .5]", "environment.etas = [nan, 0.5]",
        "environment.etas = [\"0.5\"]", "environment.etas = [0.5, 0.5"}) {
    const std::string key = line.substr(0, line.find(' '));
    try {
      (void)parse_scenario(line + "\n");
      FAIL() << "expected rejection of: " << line;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("'" + key + "'"), std::string::npos)
          << "for " << line << "\n  raised: " << error.what();
    }
  }
}

TEST(parse_scenario, errors_carry_line_numbers) {
  try {
    (void)parse_scenario("name = \"x\"\nnot a key value line\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("line 2"), std::string::npos);
  }
}

TEST(apply_override, typed_values_and_scientific_integers) {
  scenario_spec spec;
  apply_override(spec, "num_agents=1e5");
  EXPECT_EQ(spec.num_agents, 100000U);
  apply_override(spec, "params.num_options", "10");
  EXPECT_EQ(spec.params.num_options, 10U);
  apply_override(spec, "params.beta=0.72");
  EXPECT_EQ(spec.params.beta, 0.72);
  apply_override(spec, "engine", "\"agent_based\"");
  EXPECT_EQ(spec.engine, engine_kind::agent_based);
  apply_override(spec, "topology.family=watts_strogatz");
  EXPECT_EQ(spec.topology.family, topology_spec::family_kind::watts_strogatz);
  apply_override(spec, "engine=infinite");  // bare enum token also accepted
  EXPECT_EQ(spec.engine, engine_kind::infinite);
  apply_override(spec, "environment.etas=[0.9, 0.5, 0.1]");
  ASSERT_EQ(spec.environment.etas.size(), 3U);
  EXPECT_EQ(spec.environment.etas[2], 0.1);
  apply_override(spec, "probes=[\"regret\", \"hitting_time(eps=0.2)\"]");
  ASSERT_EQ(spec.probes.size(), 2U);
  EXPECT_EQ(spec.probes[1], "hitting_time(eps=0.2)");
  // A decoded array string is kept as decoded, even one that starts with
  // a quote, and an array integer accepts scientific notation.
  apply_override(spec, R"(probes=["\"regret\""])");
  EXPECT_EQ(spec.probes, std::vector<std::string>{"\"regret\""});
  scenario_spec gossip = get_scenario("gossip_ring_300");
  apply_override(gossip, "faults.0.targets=[0, 1e2]");
  EXPECT_EQ(gossip.faults.actions.at(0).targets, (std::vector<std::uint64_t>{0, 100}));
}

TEST(apply_override, indexed_keys_append_in_order) {
  scenario_spec spec;
  apply_override(spec, "groups.0.size=300");
  apply_override(spec, "groups.0.alpha=0.05");
  apply_override(spec, "groups.0.beta=0.95");
  apply_override(spec, "groups.1.size=700");
  ASSERT_EQ(spec.groups.size(), 2U);
  EXPECT_EQ(spec.groups[0].size, 300U);
  EXPECT_EQ(spec.groups[0].rule.beta, 0.95);
  EXPECT_EQ(spec.groups[1].size, 700U);
  // Addressing far past the end is an error (no silent gaps).
  EXPECT_THROW(apply_override(spec, "groups.5.size=1"), std::invalid_argument);
}

TEST(apply_override, rejects_bad_keys_and_values) {
  // Each rejected override must leave the spec as it was, including one
  // that addresses a new entry of an indexed family ("" = default spec).
  const std::vector<std::pair<std::string, std::string>> rejected{
      {"", "params.beta"},  // no '='
      {"", "params.beta=abc"},
      {"", "num_agents=-5"},
      {"", "num_agents=2.5"},
      {"", "engine=warp_drive"},
      {"", "environment.etas=0.5"},
      {"", "groups.0.gamma=1"},
      {"", "no.such.key=1"},
      {"mixture-discernment", "groups.3.gamma=1"},
      {"mixture-discernment", "groups.3.size=abc"},
      {"quickstart", "agent_rules.0.gamma=1"},
      {"quickstart", "agent_rules.0.beta=abc"},
      {"gossip_ring_300", "faults.0.at=abc"},
  };
  for (const auto& [name, assignment] : rejected) {
    scenario_spec spec = name.empty() ? scenario_spec{} : get_scenario(name);
    const std::string before = serialize_scenario(spec);
    EXPECT_THROW(apply_override(spec, assignment), std::invalid_argument) << assignment;
    EXPECT_EQ(serialize_scenario(spec), before) << name << ": " << assignment;
  }

  scenario_spec spec;
  try {
    apply_override(spec, "params.bta=0.7");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("params.beta"), std::string::npos)
        << "should suggest the nearest key, got: " << error.what();
  }
}

TEST(parse_scenario, retired_keys_are_rejected) {
  // Every step path has one sampler, so the old `kernel` knob is gone, and
  // the network step is serial, so `engine_threads` is gone too; a spec
  // that still sets either fails like any other unknown key.
  for (const std::string key : {"kernel", "engine_threads"}) {
    try {
      (void)parse_scenario("engine = \"agent_based\"\n" + key + " = 1\n");
      ADD_FAILURE() << key << ": expected invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("unknown scenario key '" + key + "'"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(sweep_grammar, range_axis_expands_inclusively) {
  const sweep_axis axis = parse_sweep_axis("params.beta=0.55:0.75:0.05");
  EXPECT_EQ(axis.key, "params.beta");
  ASSERT_EQ(axis.values.size(), 5U);
  EXPECT_EQ(axis.values.front(), "0.55");
  EXPECT_EQ(axis.values[2], "0.65");  // rounded to clean decimals
  EXPECT_EQ(axis.values.back(), "0.75");
}

TEST(sweep_grammar, list_axis_keeps_value_texts) {
  const sweep_axis axis = parse_sweep_axis("num_agents=1e3,1e4,1e5");
  EXPECT_EQ(axis.key, "num_agents");
  ASSERT_EQ(axis.values.size(), 3U);
  EXPECT_EQ(axis.values[0], "1e3");
  EXPECT_EQ(axis.values[2], "1e5");

  // Non-numeric lists sweep enum-valued keys.
  const sweep_axis families = parse_sweep_axis("topology.family=ring,torus");
  ASSERT_EQ(families.values.size(), 2U);
  EXPECT_EQ(families.values[1], "torus");
}

TEST(sweep_grammar, rejects_non_finite_range_endpoints) {
  // Regression (found by fuzzing parse_sweep_axis with generated hostile
  // inputs): a NaN endpoint sailed past every ordered comparison — lo > hi
  // is false for NaN, and so is count > 10000 — so the expansion loop ran
  // on a NaN-derived count cast to ~2^63 and the call never returned.
  // Non-finite lo/hi/step must throw like any other malformed axis.
  EXPECT_THROW((void)parse_sweep_axis("params.beta=nan:1:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0:nan:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0:1:nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=inf:1:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0:inf:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0:1:inf"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=-inf:inf:1"),
               std::invalid_argument);
}

TEST(sweep_grammar, grid_is_cartesian_last_axis_fastest) {
  const std::vector<sweep_axis> axes{parse_sweep_axis("params.beta=0.6,0.7"),
                                     parse_sweep_axis("num_agents=100,200,300")};
  const auto grid = expand_sweep(axes);
  ASSERT_EQ(grid.size(), 6U);
  EXPECT_EQ(grid[0][0].second, "0.6");
  EXPECT_EQ(grid[0][1].second, "100");
  EXPECT_EQ(grid[1][1].second, "200");  // last axis varies fastest
  EXPECT_EQ(grid[2][1].second, "300");
  EXPECT_EQ(grid[3][0].second, "0.7");
  EXPECT_EQ(grid[3][1].second, "100");
  EXPECT_EQ(grid[5][1].second, "300");

  // No axes = exactly one run with no assignments.
  const auto single = expand_sweep({});
  ASSERT_EQ(single.size(), 1U);
  EXPECT_TRUE(single[0].empty());
}

TEST(sweep_grammar, rejects_malformed_axes) {
  EXPECT_THROW((void)parse_sweep_axis("params.beta"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("=0.5,0.6"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta="), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0.6:0.5:0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0.5:0.6:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0.5:0.6:-0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0.5:0.6"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0:1:1e-9"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_axis("params.beta=0.5,,0.6"), std::invalid_argument);
}

TEST(sweep_grammar, overrides_from_sweep_values_apply) {
  const sweep_axis axis = parse_sweep_axis("params.beta=0.55:0.65:0.05");
  scenario_spec spec = get_scenario("mixed_baseline");
  apply_override(spec, axis.key, axis.values[1]);
  EXPECT_EQ(spec.params.beta, 0.6);
}

TEST(serialize, protocol_keys_round_trip_and_are_engine_scoped) {
  scenario_spec spec = get_scenario("gossip_lossy_sweep");
  apply_override(spec, "protocol.drop_probability=0.25");
  apply_override(spec, "protocol.jitter_mean=0.5");
  apply_override(spec, "protocol.max_retries=0");
  apply_override(spec, "protocol.sticky=true");
  apply_override(spec, "protocol.lockstep", "true");
  EXPECT_EQ(spec.protocol.drop_probability, 0.25);
  EXPECT_EQ(spec.protocol.max_retries, 0U);
  EXPECT_TRUE(spec.protocol.sticky);
  EXPECT_TRUE(spec.protocol.lockstep);

  const std::string text = serialize_scenario(spec);
  EXPECT_NE(text.find("protocol.drop_probability = 0.25"), std::string::npos);
  const scenario_spec parsed = parse_scenario(text);
  EXPECT_EQ(scenario_fields(spec), scenario_fields(parsed));

  // Non-protocol specs never emit protocol.* keys (they could not be
  // parsed back: the family is rejected for their engines).
  EXPECT_EQ(serialize_scenario(get_scenario("mixed_baseline")).find("protocol."),
            std::string::npos);

  EXPECT_THROW(apply_override(spec, "protocol.sticky=maybe"), std::invalid_argument);
}

TEST(apply_override, rejects_family_keys_the_engine_does_not_use) {
  // protocol.* on a non-protocol spec: rejected with the engine named.
  scenario_spec aggregate = get_scenario("mixed_baseline");
  try {
    apply_override(aggregate, "protocol.drop_probability=0.5");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("protocol"), std::string::npos) << what;
    EXPECT_NE(what.find("aggregate"), std::string::npos) << what;
  }
  // Same for a default (auto_select) spec: protocol is never auto-selected.
  scenario_spec blank;
  EXPECT_THROW(apply_override(blank, "protocol.drop_probability=0.5"),
               std::invalid_argument);
  // Setting the engine first makes the same key legal.
  apply_override(blank, "engine=protocol");
  EXPECT_NO_THROW(apply_override(blank, "protocol.drop_probability=0.5"));

  // A typo'd protocol key still gets the nearest-key suggestion (and is
  // reported as unknown even when the engine family would not match).
  try {
    apply_override(aggregate, "protocol.drop_probabilty=0.5");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("protocol.drop_probability"),
              std::string::npos)
        << error.what();
  }

  // start / groups / agent_rules / topology.family are likewise rejected
  // when an explicitly chosen engine cannot read them...
  EXPECT_THROW(apply_override(aggregate, "start=[0.5, 0.5]"), std::invalid_argument);
  EXPECT_THROW(apply_override(aggregate, "groups.0.size=10"), std::invalid_argument);
  EXPECT_THROW(apply_override(aggregate, "agent_rules.0.beta=0.9"),
               std::invalid_argument);
  EXPECT_THROW(apply_override(aggregate, "topology.family=ring"),
               std::invalid_argument);
  // ...but stay legal while the engine is auto (they flip auto-selection),
  // and `start = []` (the serialized empty default) is always accepted.
  scenario_spec auto_spec;
  EXPECT_NO_THROW(apply_override(auto_spec, "groups.0.size=10"));
  EXPECT_NO_THROW(apply_override(aggregate, "start=[]"));
}

TEST(validate_spec, protocol_engine_cross_checks) {
  scenario_spec spec = get_scenario("gossip_sync_ideal");
  EXPECT_NO_THROW(validate_spec(spec));
  spec.protocol.drop_probability = 2.0;
  try {
    validate_spec(spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("gossip_sync_ideal"), std::string::npos)
        << error.what();
  }

  // A retry budget past the engine's 32-bit field must be rejected, not
  // silently truncated (2^32 would wrap to 0 and disable retries).
  scenario_spec retries = get_scenario("gossip_sync_ideal");
  retries.protocol.max_retries = (1ULL << 32);
  EXPECT_THROW(validate_spec(retries), std::invalid_argument);
}

TEST(validate_spec, engine_flip_cannot_strand_protocol_keys) {
  // apply_override gates protocol.* at assignment time, but "later lines
  // win" lets the engine change afterwards; validate_spec must then refuse
  // to run a spec whose non-default protocol knobs the engine would
  // silently ignore.
  scenario_spec spec = get_scenario("gossip_lossy_sweep");
  apply_override(spec, "engine=aggregate");
  EXPECT_THROW(validate_spec(spec), std::invalid_argument);
  core::run_config config;
  config.horizon = 5;
  config.replications = 1;
  EXPECT_THROW((void)run_probes(spec, config), std::invalid_argument);

  // Default protocol knobs on a non-protocol spec stay legal (every
  // non-protocol spec carries them).
  EXPECT_NO_THROW(validate_spec(get_scenario("mixed_baseline")));
}

TEST(validate_spec, names_both_sides_of_an_etas_mismatch) {
  scenario_spec spec = get_scenario("ring");
  spec.environment.etas = {0.8, 0.4, 0.2};
  try {
    validate_spec(spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("3"), std::string::npos) << what;
    EXPECT_NE(what.find("num_options = 2"), std::string::npos) << what;
    EXPECT_NE(what.find("ring"), std::string::npos) << what;
  }
  core::run_config config;
  config.horizon = 5;
  config.replications = 1;
  EXPECT_THROW((void)run_probes(spec, config), std::invalid_argument);
}

TEST(validate_spec, drifting_checks_end_etas_too) {
  scenario_spec spec = get_scenario("drifting-crossover");
  EXPECT_NO_THROW(validate_spec(spec));
  spec.environment.end_etas.pop_back();
  EXPECT_THROW(validate_spec(spec), std::invalid_argument);
}

}  // namespace
}  // namespace sgl::scenario
