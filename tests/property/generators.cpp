#include "property/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "scenario/serialize.h"

namespace sgl::testgen {

// --- random JSON documents --------------------------------------------------

std::string random_string(prng& rng) {
  static const std::vector<std::string> pieces = {
      "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\r", "\x01", "\x1f",
      "{", "}", "[", "]", ":", ",", "é", "😀", "\\u0041", "end"};
  std::string out;
  const std::size_t length = rng.below(8);
  for (std::size_t i = 0; i < length; ++i) out += pieces[rng.below(pieces.size())];
  return out;
}

double random_double(prng& rng) {
  switch (rng.below(6)) {
    case 0: return 0.0;
    case 1: return static_cast<double>(rng.next()) * 0x1.0p-64;  // [0,1)
    case 2: return 0.1 * static_cast<double>(rng.below(1000));
    case 3: return 1e300 * (static_cast<double>(rng.below(2000)) - 1000.0);
    case 4: return 1e-300 * static_cast<double>(rng.below(1000));
    default: {
      // Raw bit patterns reach the denormals and odd mantissas that
      // shortest-round-trip formatting gets wrong first; skip non-finite
      // (JSON has no encoding for them — the writer emits null).
      double bits = 0.0;
      const std::uint64_t raw = rng.next();
      static_assert(sizeof(bits) == sizeof(raw));
      std::memcpy(&bits, &raw, sizeof(bits));
      return std::isfinite(bits) ? bits : 0.5;
    }
  }
}

gen_node random_node(prng& rng, std::size_t depth) {
  gen_node node;
  // Containers get rarer with depth so documents stay small and under the
  // parser's 64-level limit.
  const std::uint64_t roll = rng.below(depth >= 5 ? 5 : 7);
  switch (roll) {
    case 0: node.type = gen_node::kind::null; break;
    case 1:
      node.type = gen_node::kind::boolean;
      node.boolean = rng.below(2) == 1;
      break;
    case 2:
      node.type = gen_node::kind::number_double;
      node.number = random_double(rng);
      break;
    case 3:
      node.type = gen_node::kind::number_uint;
      // Include values past 2^53, where double precision alone fails.
      node.integer = rng.below(2) == 0 ? rng.below(1000) : rng.next();
      break;
    case 4:
      node.type = gen_node::kind::string;
      node.text = random_string(rng);
      break;
    case 5: {
      node.type = gen_node::kind::array;
      const std::size_t size = rng.below(4);
      for (std::size_t i = 0; i < size; ++i) {
        node.items.push_back(random_node(rng, depth + 1));
      }
      break;
    }
    default: {
      node.type = gen_node::kind::object;
      const std::size_t size = rng.below(4);
      for (std::size_t i = 0; i < size; ++i) {
        node.members.emplace_back(random_string(rng), random_node(rng, depth + 1));
      }
      break;
    }
  }
  return node;
}

void emit_node(const gen_node& node, json_writer& json) {
  switch (node.type) {
    case gen_node::kind::null: json.null(); break;
    case gen_node::kind::boolean: json.value(node.boolean); break;
    case gen_node::kind::number_double: json.value(node.number); break;
    case gen_node::kind::number_uint: json.value(node.integer); break;
    case gen_node::kind::string: json.value(node.text); break;
    case gen_node::kind::array:
      json.begin_array();
      for (const gen_node& item : node.items) emit_node(item, json);
      json.end_array();
      break;
    case gen_node::kind::object:
      json.begin_object();
      for (const auto& [key, value] : node.members) {
        json.key(key);
        emit_node(value, json);
      }
      json.end_object();
      break;
  }
}

void expect_node_equal(const gen_node& expected, const json_value& actual,
                       const std::string& where) {
  switch (expected.type) {
    case gen_node::kind::null:
      EXPECT_TRUE(actual.is_null()) << where;
      break;
    case gen_node::kind::boolean:
      EXPECT_EQ(actual.as_bool(where), expected.boolean) << where;
      break;
    case gen_node::kind::number_double:
      // Bit-exact: json_number promises the shortest text that parses
      // back to exactly this double.
      EXPECT_EQ(actual.as_double(where), expected.number) << where;
      break;
    case gen_node::kind::number_uint:
      EXPECT_EQ(actual.as_uint64(where), expected.integer) << where;
      break;
    case gen_node::kind::string:
      EXPECT_EQ(actual.as_string(where), expected.text) << where;
      break;
    case gen_node::kind::array: {
      ASSERT_TRUE(actual.is_array()) << where;
      ASSERT_EQ(actual.items.size(), expected.items.size()) << where;
      for (std::size_t i = 0; i < expected.items.size(); ++i) {
        expect_node_equal(expected.items[i], actual.items[i],
                          where + "[" + std::to_string(i) + "]");
      }
      break;
    }
    case gen_node::kind::object: {
      ASSERT_TRUE(actual.is_object()) << where;
      ASSERT_EQ(actual.members.size(), expected.members.size()) << where;
      for (std::size_t i = 0; i < expected.members.size(); ++i) {
        EXPECT_EQ(actual.members[i].first, expected.members[i].first) << where;
        expect_node_equal(expected.members[i].second, actual.members[i].second,
                          where + "." + expected.members[i].first);
      }
      break;
    }
  }
}

// --- random valid scenario specs --------------------------------------------

namespace {

using scenario::engine_kind;
using scenario::environment_spec;
using scenario::fault_action_spec;
using scenario::scenario_spec;
using scenario::topology_spec;

/// Values quantized to eighths serialize short and exactly.
double eighths(prng& rng) { return static_cast<double>(rng.below(9)) / 8.0; }

/// A rule with 0 <= alpha <= beta <= 1, quantized.
core::adoption_rule random_rule(prng& rng) {
  const double beta = eighths(rng);
  const double alpha = beta * static_cast<double>(rng.below(9)) / 8.0;
  return {alpha, beta};
}

core::dynamics_params random_params(prng& rng) {
  core::dynamics_params params;
  params.num_options = rng.pick<std::size_t>({1, 1, 2, 2, 3, 4, 8});
  params.mu = rng.pick<double>({0.0, 0.01, 0.05, 0.25, 1.0});
  params.beta = rng.pick<double>({0.0, 0.5, 0.55, 0.625, 0.75, 1.0});
  if (params.beta >= 0.5 && rng.chance(0.5)) {
    params.alpha = -1.0;  // the paper's convention α = 1 − β (needs β >= 1/2)
  } else {
    params.alpha = params.beta * static_cast<double>(rng.below(9)) / 8.0;
  }
  return params;
}

/// A probability vector of size m: positive integer weights normalized, so
/// the sum lands within an ulp or two of 1 (well inside every 1e-9 check).
std::vector<double> random_simplex(prng& rng, std::size_t m) {
  std::vector<std::uint64_t> weights(m);
  std::uint64_t total = 0;
  for (auto& w : weights) {
    w = rng.below(8);
    total += w;
  }
  if (total == 0) {
    weights[rng.below(m)] = 1;
    total = 1;
  }
  std::vector<double> out(m);
  for (std::size_t j = 0; j < m; ++j) {
    out[j] = static_cast<double>(weights[j]) / static_cast<double>(total);
  }
  return out;
}

std::vector<double> random_etas(prng& rng, std::size_t m) {
  std::vector<double> etas(m);
  for (auto& eta : etas) eta = eighths(rng);
  return etas;
}

void fill_environment(prng& rng, scenario_spec& spec) {
  const std::size_t m = spec.params.num_options;
  auto& env = spec.environment;
  switch (rng.below(4)) {
    case 0:
      env.family = environment_spec::family_kind::bernoulli;
      env.etas = random_etas(rng, m);
      break;
    case 1:
      env.family = environment_spec::family_kind::exclusive;
      env.etas = random_simplex(rng, m);
      break;
    case 2:
      env.family = environment_spec::family_kind::switching;
      env.etas = random_etas(rng, m);
      env.period = rng.pick<std::uint64_t>({1, 3, 50});
      break;
    default:
      env.family = environment_spec::family_kind::drifting;
      env.etas = random_etas(rng, m);
      env.end_etas = random_etas(rng, m);
      env.horizon = rng.pick<std::uint64_t>({2, 40, 500});
      break;
  }
}

void fill_probes(prng& rng, scenario_spec& spec) {
  static const std::vector<std::string> all{
      "regret",
      "trajectory",
      "final_histogram",
      "hitting_time(eps=0.3)",
      "recovery(eps=0.4)",
      "popularity_floor",
      "popularity_floor(floor=0.01)",
      "concentration",   // these six report zero replications off their
      "coupling",        // engine (one-rule count engine: aggregate, one-
      "proof_audit",     // group grouped or fully mixed agent_based; then
      "message_cost",    // infinite; protocol for the last three), which is
                         // itself part of the contract under test
      "commit_latency",
      "adoption",
  };
  const std::size_t count = 1 + rng.below(3);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& probe = rng.pick(all);
    bool seen = false;
    for (const auto& existing : spec.probes) seen = seen || existing == probe;
    if (!seen) spec.probes.push_back(probe);
  }
}

/// Populates topology + a compatible num_agents for an agent-based or
/// protocol spec.  `small` caps N (the protocol engine simulates every
/// node's mailbox, so its populations stay tiny).
void fill_topology(prng& rng, scenario_spec& spec, bool small) {
  auto& topo = spec.topology;
  topo.seed = rng.below(1000);
  const std::uint64_t cap = small ? 24 : 60;
  const auto pick_n = [&](std::vector<std::uint64_t> options) {
    std::vector<std::uint64_t> fit;
    for (const std::uint64_t n : options) {
      if (n <= cap) fit.push_back(n);
    }
    return rng.pick(fit);
  };
  switch (rng.below(9)) {
    case 0:
      topo.family = topology_spec::family_kind::complete;
      spec.num_agents = pick_n({1, 2, 3, 12, 40});
      break;
    case 1:
      topo.family = topology_spec::family_kind::ring;
      spec.num_agents = pick_n({1, 2, 3, 12, 40});
      break;
    case 2:
      topo.family = topology_spec::family_kind::star;
      spec.num_agents = pick_n({1, 2, 3, 12, 40});
      break;
    case 3:
      topo.family = topology_spec::family_kind::erdos_renyi;
      topo.edge_probability = rng.pick<double>({0.0, 0.05, 0.3, 1.0});
      spec.num_agents = pick_n({1, 2, 3, 12, 40});
      break;
    case 4:
    case 5: {
      topo.family = rng.chance(0.5) ? topology_spec::family_kind::grid
                                    : topology_spec::family_kind::torus;
      spec.num_agents = pick_n({1, 4, 6, 12, 24});
      if (rng.chance(0.5)) {
        // An explicit factorization, possibly degenerate (one row).
        std::vector<std::uint64_t> divisors;
        for (std::uint64_t d = 1; d <= spec.num_agents; ++d) {
          if (spec.num_agents % d == 0) divisors.push_back(d);
        }
        topo.rows = rng.pick(divisors);
        topo.cols = spec.num_agents / topo.rows;
      }
      break;
    }
    case 6: {
      topo.family = topology_spec::family_kind::watts_strogatz;
      spec.num_agents = pick_n({3, 5, 12, 40});
      topo.degree = 1 + rng.below((spec.num_agents - 1) / 2);
      topo.rewire_probability = rng.pick<double>({0.0, 0.1, 1.0});
      break;
    }
    case 7: {
      topo.family = topology_spec::family_kind::barabasi_albert;
      spec.num_agents = pick_n({2, 3, 12, 40});
      topo.degree = 1 + rng.below(spec.num_agents - 1);
      break;
    }
    default: {
      topo.family = topology_spec::family_kind::two_cliques;
      spec.num_agents = pick_n({4, 6, 12, 40});
      topo.bridges = 1 + rng.below(spec.num_agents / 2);
      break;
    }
  }
}

void fill_protocol(prng& rng, scenario_spec& spec) {
  auto& p = spec.protocol;
  p.round_interval = rng.pick<double>({0.5, 1.0});
  p.base_latency = rng.pick<double>({0.0, 0.05});
  p.jitter_mean = rng.pick<double>({0.0, 0.02});
  p.drop_probability = rng.pick<double>({0.0, 0.1, 1.0});
  p.max_retries = rng.pick<std::uint64_t>({0, 2, 4});
  p.crash_rate = rng.pick<double>({0.0, 0.05});
  p.restart_rate = p.crash_rate > 0.0 ? rng.pick<double>({0.0, 0.25}) : 0.0;
  p.sticky = rng.chance(0.3);
  p.lockstep = rng.chance(0.3);

  if (rng.chance(0.25)) {
    fault_action_spec action;
    // A partition needs a non-empty other side, so N = 1 draws a wave.
    switch (spec.num_agents < 2 ? 1 + rng.below(2) : rng.below(3)) {
      case 0: {
        action.kind = fault_action_spec::action_kind::partition;
        action.at = 2.0;
        action.until = 5.0;
        action.targets = {0};
        break;
      }
      case 1: {
        action.kind = fault_action_spec::action_kind::crash_wave;
        action.at = 2.0;
        action.fraction = 0.5;
        break;
      }
      default: {
        action.kind = fault_action_spec::action_kind::degrade;
        action.at = 1.0;
        action.until = 4.0;
        action.drop_probability = 0.5;
        action.base_latency = 0.05;
        break;
      }
    }
    spec.faults.actions.push_back(action);
    if (rng.chance(0.3)) {
      spec.faults.record = true;
      spec.faults.record_capacity = rng.pick<std::uint64_t>({0, 64});
    }
  }
}

void check_valid(const scenario_spec& spec, const char* who) {
  const std::string error = scenario::validate_spec_error(spec);
  if (!error.empty()) {
    throw std::logic_error{std::string{who} + " produced an invalid spec: " + error +
                           "\n" + scenario::serialize_scenario(spec)};
  }
}

}  // namespace

scenario_spec random_scenario(prng& rng) {
  scenario_spec spec;
  spec.name = "generated";
  spec.params = random_params(rng);
  fill_environment(rng, spec);
  fill_probes(rng, spec);

  switch (rng.below(8)) {
    case 0:  // mean-field, optionally from a nonuniform start
      spec.num_agents = 0;
      spec.engine = rng.chance(0.5) ? engine_kind::infinite : engine_kind::auto_select;
      if (rng.chance(0.4)) {
        spec.engine = engine_kind::infinite;
        spec.start = random_simplex(rng, spec.params.num_options);
      }
      break;
    case 1:  // exact aggregate
      spec.num_agents = rng.pick<std::uint64_t>({1, 2, 3, 10, 77, 500});
      spec.engine = rng.chance(0.5) ? engine_kind::aggregate : engine_kind::auto_select;
      break;
    case 2:  // agent-based, homogeneous fully mixed
      spec.num_agents = rng.pick<std::uint64_t>({1, 2, 3, 16, 60, 200});
      spec.engine = engine_kind::agent_based;
      break;
    case 3:  // agent-based, heterogeneous per-agent rules
      spec.num_agents = rng.pick<std::uint64_t>({1, 2, 3, 16, 60});
      spec.engine = engine_kind::agent_based;
      spec.agent_rules.resize(spec.num_agents);
      for (auto& rule : spec.agent_rules) rule = random_rule(rng);
      break;
    case 4:  // agent-based on a topology
      spec.engine =
          rng.chance(0.5) ? engine_kind::agent_based : engine_kind::auto_select;
      fill_topology(rng, spec, /*small=*/false);
      if (rng.chance(0.3)) {
        spec.agent_rules.resize(spec.num_agents);
        for (auto& rule : spec.agent_rules) rule = random_rule(rng);
        spec.engine = engine_kind::agent_based;
      }
      break;
    case 5: {  // grouped rule mixture
      spec.engine = rng.chance(0.5) ? engine_kind::grouped : engine_kind::auto_select;
      const std::size_t group_count = 1 + rng.below(3);
      spec.num_agents = 0;
      for (std::size_t i = 0; i < group_count; ++i) {
        const std::uint64_t size = rng.pick<std::uint64_t>({1, 2, 10, 50, 150});
        spec.groups.push_back({size, random_rule(rng)});
        spec.num_agents += size;
      }
      break;
    }
    case 6:  // protocol, fully mixed
      spec.engine = engine_kind::protocol;
      spec.num_agents = rng.pick<std::uint64_t>({1, 2, 3, 8, 24});
      fill_protocol(rng, spec);
      break;
    default:  // protocol on a topology
      spec.engine = engine_kind::protocol;
      fill_topology(rng, spec, /*small=*/true);
      fill_protocol(rng, spec);
      break;
  }

  check_valid(spec, "random_scenario");
  return spec;
}

const std::vector<scenario_spec>& corner_specs() {
  static const std::vector<scenario_spec> corners = [] {
    std::vector<scenario_spec> out;
    const auto add = [&out](const char* name, auto&& build) {
      scenario_spec spec;
      spec.name = name;
      spec.params.beta = 0.65;
      spec.params.mu = 0.05;
      build(spec);
      check_valid(spec, name);
      out.push_back(std::move(spec));
    };

    add("corner-one-agent-one-option", [](scenario_spec& spec) {
      spec.params.num_options = 1;
      spec.num_agents = 1;
      spec.engine = engine_kind::aggregate;
      spec.environment.etas = {1.0};
    });
    add("corner-infinite-one-option", [](scenario_spec& spec) {
      spec.params.num_options = 1;
      spec.num_agents = 0;
      spec.engine = engine_kind::infinite;
      spec.environment.etas = {0.5};
    });
    add("corner-infinite-degenerate-start", [](scenario_spec& spec) {
      spec.params.num_options = 4;
      spec.num_agents = 0;
      spec.engine = engine_kind::infinite;
      spec.start = {1.0, 0.0, 0.0, 0.0};
      spec.environment.etas = {0.8, 0.5, 0.3, 0.1};
    });
    add("corner-beta-zero", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.params.beta = 0.0;
      spec.params.alpha = 0.0;
      spec.num_agents = 10;
      spec.engine = engine_kind::aggregate;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-beta-one-all-bad", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.params.beta = 1.0;
      spec.params.alpha = 0.0;
      spec.num_agents = 5;
      spec.engine = engine_kind::agent_based;
      spec.environment.etas = {0.0, 0.0};
    });
    add("corner-mu-one", [](scenario_spec& spec) {
      spec.params.num_options = 3;
      spec.params.mu = 1.0;
      spec.num_agents = 20;
      spec.environment.etas = {0.75, 0.5, 0.25};
    });
    add("corner-mu-zero", [](scenario_spec& spec) {
      spec.params.num_options = 3;
      spec.params.mu = 0.0;
      spec.num_agents = 20;
      spec.environment.etas = {0.75, 0.5, 0.25};
    });
    add("corner-grouped-single-group", [](scenario_spec& spec) {
      spec.params.num_options = 3;
      spec.num_agents = 50;
      spec.groups = {{50, {0.35, 0.65}}};
      spec.environment.etas = {0.75, 0.5, 0.25};
    });
    add("corner-grouped-size-one-groups", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 12;
      spec.groups = {{1, {0.0, 1.0}}, {10, {0.5, 0.5}}, {1, {0.35, 0.65}}};
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-ring-of-three", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 3;
      spec.topology.family = topology_spec::family_kind::ring;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-empty-graph", [](scenario_spec& spec) {
      // erdos_renyi with p = 0: every agent is isolated, stage 1 never
      // finds a neighbour, and the run must stay well-defined (uniform).
      spec.params.num_options = 2;
      spec.num_agents = 8;
      spec.topology.family = topology_spec::family_kind::erdos_renyi;
      spec.topology.edge_probability = 0.0;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-two-cliques-minimal", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 4;
      spec.topology.family = topology_spec::family_kind::two_cliques;
      spec.topology.bridges = 2;
      spec.agent_rules = {{0.0, 1.0}, {0.5, 0.5}, {0.35, 0.65}, {0.0, 0.0}};
      spec.engine = engine_kind::agent_based;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-one-row-grid", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 6;
      spec.topology.family = topology_spec::family_kind::grid;
      spec.topology.rows = 1;
      spec.topology.cols = 6;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-smallworld-minimal", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 3;
      spec.topology.family = topology_spec::family_kind::watts_strogatz;
      spec.topology.degree = 1;
      spec.topology.rewire_probability = 1.0;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-protocol-single-node", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 1;
      spec.engine = engine_kind::protocol;
      spec.protocol.lockstep = true;
      spec.protocol.base_latency = 0.0;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-protocol-full-drop", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 4;
      spec.engine = engine_kind::protocol;
      spec.protocol.drop_probability = 1.0;
      spec.protocol.sticky = true;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-protocol-partition", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 6;
      spec.engine = engine_kind::protocol;
      fault_action_spec cut;
      cut.kind = fault_action_spec::action_kind::partition;
      cut.at = 2.0;
      cut.until = 6.0;
      cut.targets = {0, 1};
      spec.faults.actions.push_back(cut);
      spec.faults.record = true;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-switching-every-step", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 10;
      spec.environment.family = environment_spec::family_kind::switching;
      spec.environment.period = 1;
      spec.environment.etas = {0.75, 0.25};
    });
    add("corner-drifting-two-steps", [](scenario_spec& spec) {
      spec.params.num_options = 2;
      spec.num_agents = 10;
      spec.environment.family = environment_spec::family_kind::drifting;
      spec.environment.etas = {0.75, 0.25};
      spec.environment.end_etas = {0.25, 0.75};
      spec.environment.horizon = 2;
    });
    return out;
  }();
  return corners;
}

scenario_spec draw_scenario(std::uint64_t seed, std::uint64_t iteration) {
  const auto& corners = corner_specs();
  if (iteration < corners.size()) return corners[iteration];
  prng rng{seed + 0x100000001b3ULL * (iteration + 1)};
  return random_scenario(rng);
}

// --- environment knobs -------------------------------------------------------

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return fallback;
  return static_cast<std::uint64_t>(value);
}

}  // namespace

property_plan property_run_plan(std::uint64_t default_iterations,
                                std::uint64_t default_seed) {
  property_plan plan;
  plan.seed = env_u64("SGL_PROPERTY_SEED", default_seed);
  plan.iterations = env_u64("SGL_PROPERTY_ITERS", default_iterations);
  return plan;
}

}  // namespace sgl::testgen
