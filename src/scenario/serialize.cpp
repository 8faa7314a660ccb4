#include "scenario/serialize.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "support/json.h"  // json_number / json_escape
#include "support/text.h"  // trim_ascii / parse_full_double / closest_name

namespace sgl::scenario {
namespace {

// --- lexical helpers --------------------------------------------------------

[[noreturn]] void fail(std::string_view key, const std::string& what) {
  throw std::invalid_argument{"scenario key '" + std::string{key} + "': " + what};
}

double parse_double(std::string_view key, std::string_view text) {
  const std::optional<double> parsed = parse_full_double(text);
  if (!parsed) fail(key, "bad number '" + std::string{trim_ascii(text)} + "'");
  return *parsed;
}

/// Unsigned integer, accepting both exact decimal ("100000") and numeric
/// notation that denotes an integer ("1e5").
std::uint64_t parse_unsigned(std::string_view key, std::string_view text) {
  const std::string_view t = trim_ascii(text);
  std::uint64_t exact = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), exact);
  if (ec == std::errc{} && ptr == t.data() + t.size()) return exact;
  const double parsed = parse_double(key, t);
  if (!(parsed >= 0.0) || parsed != std::floor(parsed) || parsed > 9.007199254740992e15) {
    fail(key, "expected a non-negative integer, got '" + std::string{t} + "'");
  }
  return static_cast<std::uint64_t>(parsed);
}

/// A string value: JSON-quoted ("...") or a bare token.
std::string parse_string(std::string_view key, std::string_view text) {
  const std::string_view t = trim_ascii(text);
  if (t.empty() || t.front() != '"') return std::string{t};
  std::string out;
  out.reserve(t.size());
  for (std::size_t i = 1; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '"') {
      if (i + 1 != t.size()) fail(key, "text after the closing quote");
      return out;
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i == t.size()) fail(key, "dangling escape");
    const char escaped = t[i];
    switch (escaped) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // \uXXXX (BMP only, as emitted by json_escape and by JSON encoders
        // with ensure_ascii), decoded to UTF-8.
        if (i + 4 >= t.size()) fail(key, "truncated \\u escape");
        unsigned code = 0;
        for (int digit = 0; digit < 4; ++digit) {
          const char h = t[++i];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail(key, "bad \\u escape");
          }
        }
        if (code >= 0xD800 && code < 0xE000) {
          fail(key, "surrogate \\u escapes are not supported");
        }
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0U | (code >> 6));
          out += static_cast<char>(0x80U | (code & 0x3FU));
        } else {
          out += static_cast<char>(0xE0U | (code >> 12));
          out += static_cast<char>(0x80U | ((code >> 6) & 0x3FU));
          out += static_cast<char>(0x80U | (code & 0x3FU));
        }
        break;
      }
      default: fail(key, std::string{"unsupported escape '\\"} + escaped + "'");
    }
  }
  fail(key, "unterminated string");
}

/// Splits "[a, b, c]" into trimmed element texts ({} for "[]").
std::vector<std::string_view> parse_array_elements(std::string_view key,
                                                   std::string_view text) {
  const std::string_view t = trim_ascii(text);
  if (t.size() < 2 || t.front() != '[' || t.back() != ']') {
    fail(key, "expected an array like [a, b, c], got '" + std::string{t} + "'");
  }
  const std::string_view body = trim_ascii(t.substr(1, t.size() - 2));
  std::vector<std::string_view> out;
  if (body.empty()) return out;
  bool in_quotes = false;
  bool escaped = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    if (i < body.size()) {
      if (escaped) {
        escaped = false;
        continue;
      }
      if (in_quotes && body[i] == '\\') {
        escaped = true;
        continue;
      }
      if (body[i] == '"') in_quotes = !in_quotes;
    }
    if (i == body.size() || (body[i] == ',' && !in_quotes)) {
      out.push_back(trim_ascii(body.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<double> parse_double_array(std::string_view key, std::string_view text) {
  std::vector<double> out;
  for (const std::string_view element : parse_array_elements(key, text)) {
    out.push_back(parse_double(key, element));
  }
  return out;
}

std::vector<std::string> parse_string_array(std::string_view key, std::string_view text) {
  std::vector<std::string> out;
  for (const std::string_view element : parse_array_elements(key, text)) {
    out.push_back(parse_string(key, element));
  }
  return out;
}

std::vector<std::uint64_t> parse_unsigned_array(std::string_view key,
                                                std::string_view text) {
  std::vector<std::uint64_t> out;
  for (const std::string_view element : parse_array_elements(key, text)) {
    out.push_back(parse_unsigned(key, element));
  }
  return out;
}

std::string quote(std::string_view s) { return '"' + json_escape(s) + '"'; }

/// A boolean value: bare or quoted `true` / `false`.
bool parse_bool(std::string_view key, std::string_view text) {
  const std::string parsed = parse_string(key, text);
  if (parsed == "true") return true;
  if (parsed == "false") return false;
  fail(key, "expected true or false, got '" + parsed + "'");
}

std::string format_double_array(std::span<const double> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  out += ']';
  return out;
}

std::string format_string_array(std::span<const std::string> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(values[i]);
  }
  out += ']';
  return out;
}

std::string format_unsigned_array(std::span<const std::uint64_t> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

// --- enum names -------------------------------------------------------------

template <typename Enum, std::size_t N>
std::string_view enum_name(std::string_view key, Enum value,
                           const std::array<std::pair<std::string_view, Enum>, N>& names) {
  for (const auto& [name, e] : names) {
    if (e == value) return name;
  }
  fail(key, "unmapped enum value");  // unreachable for in-range enums
}

template <typename Enum, std::size_t N>
Enum enum_value(std::string_view key, std::string_view text,
                const std::array<std::pair<std::string_view, Enum>, N>& names) {
  const std::string parsed = parse_string(key, text);
  for (const auto& [name, e] : names) {
    if (name == parsed) return e;
  }
  std::string message = "unknown value '" + parsed + "'; known:";
  for (const auto& [name, e] : names) {
    message += ' ';
    message += name;
  }
  fail(key, message);
}

constexpr std::array<std::pair<std::string_view, engine_kind>, 6> k_engine_names{{
    {"auto", engine_kind::auto_select},
    {"infinite", engine_kind::infinite},
    {"aggregate", engine_kind::aggregate},
    {"agent_based", engine_kind::agent_based},
    {"grouped", engine_kind::grouped},
    {"protocol", engine_kind::protocol},
}};

constexpr std::array<std::pair<std::string_view, topology_spec::family_kind>, 10>
    k_topology_names{{
        {"none", topology_spec::family_kind::none},
        {"complete", topology_spec::family_kind::complete},
        {"ring", topology_spec::family_kind::ring},
        {"grid", topology_spec::family_kind::grid},
        {"torus", topology_spec::family_kind::torus},
        {"star", topology_spec::family_kind::star},
        {"erdos_renyi", topology_spec::family_kind::erdos_renyi},
        {"watts_strogatz", topology_spec::family_kind::watts_strogatz},
        {"barabasi_albert", topology_spec::family_kind::barabasi_albert},
        {"two_cliques", topology_spec::family_kind::two_cliques},
    }};

constexpr std::array<std::pair<std::string_view, environment_spec::family_kind>, 4>
    k_environment_names{{
        {"bernoulli", environment_spec::family_kind::bernoulli},
        {"exclusive", environment_spec::family_kind::exclusive},
        {"switching", environment_spec::family_kind::switching},
        {"drifting", environment_spec::family_kind::drifting},
    }};

constexpr std::array<std::pair<std::string_view, fault_action_spec::action_kind>, 4>
    k_fault_kind_names{{
        {"partition", fault_action_spec::action_kind::partition},
        {"crash_wave", fault_action_spec::action_kind::crash_wave},
        {"restart_wave", fault_action_spec::action_kind::restart_wave},
        {"degrade", fault_action_spec::action_kind::degrade},
    }};

constexpr std::array<std::pair<std::string_view, fault_action_spec::link_class_kind>, 4>
    k_link_class_names{{
        {"all", fault_action_spec::link_class_kind::all},
        {"intra", fault_action_spec::link_class_kind::intra},
        {"cross", fault_action_spec::link_class_kind::cross},
        {"nodes", fault_action_spec::link_class_kind::nodes},
    }};

// --- the key table ----------------------------------------------------------

/// Non-indexed keys, in canonical serialization order.  `groups.N.size/
/// alpha/beta`, `agent_rules.N.alpha/beta`, and `faults.N.*` are the
/// indexed families.  The `protocol.*` and `faults.*` families are
/// serialized only for protocol-engine specs and rejected for every other
/// engine (engine-family gating below).
constexpr std::array<std::string_view, 34> k_keys{
    "name",
    "description",
    "engine",
    "num_agents",
    "params.num_options",
    "params.mu",
    "params.beta",
    "params.alpha",
    "environment.family",
    "environment.etas",
    "environment.end_etas",
    "environment.period",
    "environment.horizon",
    "topology.family",
    "topology.rows",
    "topology.cols",
    "topology.edge_probability",
    "topology.degree",
    "topology.rewire_probability",
    "topology.bridges",
    "topology.seed",
    "protocol.round_interval",
    "protocol.base_latency",
    "protocol.jitter_mean",
    "protocol.drop_probability",
    "protocol.max_retries",
    "protocol.crash_rate",
    "protocol.restart_rate",
    "protocol.sticky",
    "protocol.lockstep",
    "faults.record",
    "faults.record_capacity",
    "start",
    "probes",
};

[[noreturn]] void unknown_key(std::string_view key) {
  std::string message{"unknown scenario key '"};
  message += key;
  message += "'";
  std::vector<std::string_view> candidates{k_keys.begin(), k_keys.end()};
  candidates.insert(candidates.end(),
                    {"groups.0.size", "groups.0.alpha", "groups.0.beta",
                     "agent_rules.0.alpha", "agent_rules.0.beta",
                     "faults.0.kind", "faults.0.at", "faults.0.until",
                     "faults.0.targets", "faults.0.fraction",
                     "faults.0.link_class", "faults.0.base_latency",
                     "faults.0.jitter_mean", "faults.0.drop_probability"});
  const std::string suggestion = closest_name(key, candidates);
  if (!suggestion.empty()) {
    message += " (did you mean '";
    message += suggestion;
    message += "'?)";
  }
  throw std::invalid_argument{message};
}

/// Rejects a key whose family the spec's chosen engine does not read.  A
/// plausible-but-irrelevant key silently accepted would make the run claim
/// a configuration it never used; rejecting here keeps `--set` and spec
/// files honest.  Keys that can flip auto-selection (groups, agent_rules,
/// topology) stay legal while the engine is `auto`; `protocol.*` keys are
/// never auto-selected, so they require engine = "protocol" to have been
/// set first (canonical serialization emits `engine` before every family
/// key, so round trips are unaffected).
[[noreturn]] void family_mismatch(std::string_view key, std::string_view readers,
                                  engine_kind actual) {
  std::string message{"scenario key '"};
  message += key;
  message += "' is read only by the ";
  message += readers;
  message += " engine, but this spec's engine is '";
  message += enum_name("engine", actual, k_engine_names);
  message += "' — set a matching engine before it, or drop the key";
  throw std::invalid_argument{message};
}

/// Parses "<family>.<index>.<field>" tails; returns false when `key` does
/// not start with `family.`.
bool split_indexed(std::string_view key, std::string_view family, std::size_t& index,
                   std::string_view& field) {
  if (!key.starts_with(family) || key.size() <= family.size() ||
      key[family.size()] != '.') {
    return false;
  }
  const std::string_view tail = key.substr(family.size() + 1);
  const std::size_t dot = tail.find('.');
  if (dot == std::string_view::npos) unknown_key(key);
  const std::string_view index_text = tail.substr(0, dot);
  const auto [ptr, ec] =
      std::from_chars(index_text.data(), index_text.data() + index_text.size(), index);
  if (ec != std::errc{} || ptr != index_text.data() + index_text.size()) unknown_key(key);
  field = tail.substr(dot + 1);
  return true;
}

/// Fetches entry `index` of `entries`, appending one default entry when the
/// key addresses one past the end (how the text format builds lists).
template <typename T>
T& addressed_entry(std::string_view key, std::vector<T>& entries, std::size_t index) {
  if (index == entries.size()) entries.emplace_back();
  if (index >= entries.size()) {
    fail(key, "index " + std::to_string(index) + " skips entries (list has " +
                  std::to_string(entries.size()) + ")");
  }
  return entries[index];
}

}  // namespace

void apply_override(scenario_spec& spec, std::string_view key, std::string_view value) {
  const std::string_view k = trim_ascii(key);
  const std::string_view v = trim_ascii(value);

  if (k == "name") {
    spec.name = parse_string(k, v);
  } else if (k == "description") {
    spec.description = parse_string(k, v);
  } else if (k == "engine") {
    spec.engine = enum_value(k, v, k_engine_names);
  } else if (k == "num_agents") {
    spec.num_agents = parse_unsigned(k, v);
  } else if (k == "params.num_options") {
    spec.params.num_options = static_cast<std::size_t>(parse_unsigned(k, v));
  } else if (k == "params.mu") {
    spec.params.mu = parse_double(k, v);
  } else if (k == "params.beta") {
    spec.params.beta = parse_double(k, v);
  } else if (k == "params.alpha") {
    spec.params.alpha = parse_double(k, v);
  } else if (k == "environment.family") {
    spec.environment.family = enum_value(k, v, k_environment_names);
  } else if (k == "environment.etas") {
    spec.environment.etas = parse_double_array(k, v);
  } else if (k == "environment.end_etas") {
    spec.environment.end_etas = parse_double_array(k, v);
  } else if (k == "environment.period") {
    spec.environment.period = parse_unsigned(k, v);
  } else if (k == "environment.horizon") {
    spec.environment.horizon = parse_unsigned(k, v);
  } else if (k == "topology.family") {
    const auto family = enum_value(k, v, k_topology_names);
    if (family != topology_spec::family_kind::none &&
        spec.engine != engine_kind::auto_select &&
        spec.engine != engine_kind::agent_based &&
        spec.engine != engine_kind::protocol) {
      family_mismatch(k, "agent_based or protocol", spec.engine);
    }
    spec.topology.family = family;
  } else if (k == "topology.rows") {
    spec.topology.rows = static_cast<std::size_t>(parse_unsigned(k, v));
  } else if (k == "topology.cols") {
    spec.topology.cols = static_cast<std::size_t>(parse_unsigned(k, v));
  } else if (k == "topology.edge_probability") {
    spec.topology.edge_probability = parse_double(k, v);
  } else if (k == "topology.degree") {
    spec.topology.degree = static_cast<std::size_t>(parse_unsigned(k, v));
  } else if (k == "topology.rewire_probability") {
    spec.topology.rewire_probability = parse_double(k, v);
  } else if (k == "topology.bridges") {
    spec.topology.bridges = static_cast<std::size_t>(parse_unsigned(k, v));
  } else if (k == "topology.seed") {
    spec.topology.seed = parse_unsigned(k, v);
  } else if (k.starts_with("protocol.")) {
    const std::string_view field = k.substr(9);
    const bool known = field == "round_interval" || field == "base_latency" ||
                       field == "jitter_mean" || field == "drop_probability" ||
                       field == "max_retries" || field == "crash_rate" ||
                       field == "restart_rate" || field == "sticky" ||
                       field == "lockstep";
    if (!known) unknown_key(k);
    if (spec.engine != engine_kind::protocol) family_mismatch(k, "protocol", spec.engine);
    protocol_spec& p = spec.protocol;
    if (field == "round_interval") {
      p.round_interval = parse_double(k, v);
    } else if (field == "base_latency") {
      p.base_latency = parse_double(k, v);
    } else if (field == "jitter_mean") {
      p.jitter_mean = parse_double(k, v);
    } else if (field == "drop_probability") {
      p.drop_probability = parse_double(k, v);
    } else if (field == "max_retries") {
      p.max_retries = parse_unsigned(k, v);
    } else if (field == "crash_rate") {
      p.crash_rate = parse_double(k, v);
    } else if (field == "restart_rate") {
      p.restart_rate = parse_double(k, v);
    } else if (field == "sticky") {
      p.sticky = parse_bool(k, v);
    } else if (field == "lockstep") {
      p.lockstep = parse_bool(k, v);
    } else {
      // Unreachable while the chain matches the `known` list above; a new
      // field added only to that list must fail loudly, not silently land
      // in the last branch.
      unknown_key(k);
    }
  } else if (k == "faults.record") {
    if (spec.engine != engine_kind::protocol) family_mismatch(k, "protocol", spec.engine);
    spec.faults.record = parse_bool(k, v);
  } else if (k == "faults.record_capacity") {
    if (spec.engine != engine_kind::protocol) family_mismatch(k, "protocol", spec.engine);
    spec.faults.record_capacity = parse_unsigned(k, v);
  } else if (k == "start") {
    std::vector<double> start = parse_double_array(k, v);
    if (!start.empty() && spec.engine != engine_kind::auto_select &&
        spec.engine != engine_kind::infinite) {
      family_mismatch(k, "infinite", spec.engine);
    }
    spec.start = std::move(start);
  } else if (k == "probes") {
    spec.probes = parse_string_array(k, v);
  } else {
    std::size_t index = 0;
    std::string_view field;
    if (split_indexed(k, "faults", index, field)) {
      const bool known = field == "kind" || field == "at" || field == "until" ||
                         field == "targets" || field == "fraction" ||
                         field == "link_class" || field == "base_latency" ||
                         field == "jitter_mean" || field == "drop_probability";
      if (!known) unknown_key(k);
      if (spec.engine != engine_kind::protocol) family_mismatch(k, "protocol", spec.engine);
      fault_action_spec& action = addressed_entry(k, spec.faults.actions, index);
      if (field == "kind") {
        action.kind = enum_value(k, v, k_fault_kind_names);
      } else if (field == "at") {
        action.at = parse_double(k, v);
      } else if (field == "until") {
        action.until = parse_double(k, v);
      } else if (field == "targets") {
        action.targets = parse_unsigned_array(k, v);
      } else if (field == "fraction") {
        action.fraction = parse_double(k, v);
      } else if (field == "link_class") {
        action.link_class = enum_value(k, v, k_link_class_names);
      } else if (field == "base_latency") {
        action.base_latency = parse_double(k, v);
      } else if (field == "jitter_mean") {
        action.jitter_mean = parse_double(k, v);
      } else if (field == "drop_probability") {
        action.drop_probability = parse_double(k, v);
      } else {
        // Unreachable while the chain matches `known`; a field added only
        // there must fail loudly.
        unknown_key(k);
      }
    } else if (split_indexed(k, "groups", index, field)) {
      if (spec.engine != engine_kind::auto_select &&
          spec.engine != engine_kind::grouped) {
        family_mismatch(k, "grouped", spec.engine);
      }
      core::rule_group& group = addressed_entry(k, spec.groups, index);
      if (field == "size") {
        group.size = parse_unsigned(k, v);
      } else if (field == "alpha") {
        group.rule.alpha = parse_double(k, v);
      } else if (field == "beta") {
        group.rule.beta = parse_double(k, v);
      } else {
        unknown_key(k);
      }
    } else if (split_indexed(k, "agent_rules", index, field)) {
      if (spec.engine != engine_kind::auto_select &&
          spec.engine != engine_kind::agent_based) {
        family_mismatch(k, "agent_based", spec.engine);
      }
      core::adoption_rule& rule = addressed_entry(k, spec.agent_rules, index);
      if (field == "alpha") {
        rule.alpha = parse_double(k, v);
      } else if (field == "beta") {
        rule.beta = parse_double(k, v);
      } else {
        unknown_key(k);
      }
    } else {
      unknown_key(k);
    }
  }
}

void apply_override(scenario_spec& spec, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos) {
    throw std::invalid_argument{"override '" + std::string{assignment} +
                                "' must be key=value"};
  }
  apply_override(spec, assignment.substr(0, eq), assignment.substr(eq + 1));
}

std::vector<std::pair<std::string, std::string>> scenario_fields(
    const scenario_spec& spec) {
  std::vector<std::pair<std::string, std::string>> fields;
  const auto add = [&fields](std::string_view key, std::string value) {
    fields.emplace_back(std::string{key}, std::move(value));
  };
  add("name", quote(spec.name));
  add("description", quote(spec.description));
  add("engine", quote(enum_name("engine", spec.engine, k_engine_names)));
  add("num_agents", std::to_string(spec.num_agents));
  add("params.num_options", std::to_string(spec.params.num_options));
  add("params.mu", json_number(spec.params.mu));
  add("params.beta", json_number(spec.params.beta));
  add("params.alpha", json_number(spec.params.alpha));
  add("environment.family",
      quote(enum_name("environment.family", spec.environment.family, k_environment_names)));
  add("environment.etas", format_double_array(spec.environment.etas));
  add("environment.end_etas", format_double_array(spec.environment.end_etas));
  add("environment.period", std::to_string(spec.environment.period));
  add("environment.horizon", std::to_string(spec.environment.horizon));
  add("topology.family",
      quote(enum_name("topology.family", spec.topology.family, k_topology_names)));
  add("topology.rows", std::to_string(spec.topology.rows));
  add("topology.cols", std::to_string(spec.topology.cols));
  add("topology.edge_probability", json_number(spec.topology.edge_probability));
  add("topology.degree", std::to_string(spec.topology.degree));
  add("topology.rewire_probability", json_number(spec.topology.rewire_probability));
  add("topology.bridges", std::to_string(spec.topology.bridges));
  add("topology.seed", std::to_string(spec.topology.seed));
  if (spec.engine == engine_kind::protocol) {
    // Only the protocol engine reads these keys, and only it may set them
    // (apply_override's engine-family gating); emitting them for other
    // engines would break the parse(serialize(s)) round trip.
    add("protocol.round_interval", json_number(spec.protocol.round_interval));
    add("protocol.base_latency", json_number(spec.protocol.base_latency));
    add("protocol.jitter_mean", json_number(spec.protocol.jitter_mean));
    add("protocol.drop_probability", json_number(spec.protocol.drop_probability));
    add("protocol.max_retries", std::to_string(spec.protocol.max_retries));
    add("protocol.crash_rate", json_number(spec.protocol.crash_rate));
    add("protocol.restart_rate", json_number(spec.protocol.restart_rate));
    add("protocol.sticky", spec.protocol.sticky ? "true" : "false");
    add("protocol.lockstep", spec.protocol.lockstep ? "true" : "false");
    add("faults.record", spec.faults.record ? "true" : "false");
    add("faults.record_capacity", std::to_string(spec.faults.record_capacity));
    for (std::size_t i = 0; i < spec.faults.actions.size(); ++i) {
      const fault_action_spec& action = spec.faults.actions[i];
      const std::string prefix = "faults." + std::to_string(i) + ".";
      add(prefix + "kind",
          quote(enum_name(prefix + "kind", action.kind, k_fault_kind_names)));
      add(prefix + "at", json_number(action.at));
      add(prefix + "until", json_number(action.until));
      add(prefix + "targets", format_unsigned_array(action.targets));
      add(prefix + "fraction", json_number(action.fraction));
      add(prefix + "link_class",
          quote(enum_name(prefix + "link_class", action.link_class, k_link_class_names)));
      add(prefix + "base_latency", json_number(action.base_latency));
      add(prefix + "jitter_mean", json_number(action.jitter_mean));
      add(prefix + "drop_probability", json_number(action.drop_probability));
    }
  }
  add("start", format_double_array(spec.start));
  add("probes", format_string_array(spec.probes));
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    const std::string prefix = "groups." + std::to_string(g) + ".";
    add(prefix + "size", std::to_string(spec.groups[g].size));
    add(prefix + "alpha", json_number(spec.groups[g].rule.alpha));
    add(prefix + "beta", json_number(spec.groups[g].rule.beta));
  }
  for (std::size_t i = 0; i < spec.agent_rules.size(); ++i) {
    const std::string prefix = "agent_rules." + std::to_string(i) + ".";
    add(prefix + "alpha", json_number(spec.agent_rules[i].alpha));
    add(prefix + "beta", json_number(spec.agent_rules[i].beta));
  }
  return fields;
}

std::string serialize_scenario(const scenario_spec& spec) {
  std::string out = "# sociolearn scenario v1\n";
  for (const auto& [key, value] : scenario_fields(spec)) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

std::vector<text_line> split_lines(std::string_view text) {
  std::vector<text_line> lines;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t newline = text.find('\n', start);
    if (newline == std::string_view::npos) newline = text.size();
    std::string_view line = text.substr(start, newline - start);
    start = newline + 1;
    ++line_number;

    // Strip a trailing comment ('#' outside quotes).
    bool in_quotes = false;
    bool escaped = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (escaped) {
        escaped = false;
        continue;
      }
      if (in_quotes && line[i] == '\\') {
        escaped = true;
        continue;
      }
      if (line[i] == '"') in_quotes = !in_quotes;
      if (line[i] == '#' && !in_quotes) {
        line = line.substr(0, i);
        break;
      }
    }
    line = trim_ascii(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument{"line " + std::to_string(line_number) +
                                  ": expected 'key = value', got '" + std::string{line} +
                                  "'"};
    }
    lines.push_back({line_number, trim_ascii(line.substr(0, eq)),
                     trim_ascii(line.substr(eq + 1))});
  }
  return lines;
}

scenario_spec parse_scenario(std::string_view text) {
  scenario_spec spec;
  for (const text_line& line : split_lines(text)) {
    try {
      apply_override(spec, line.key, line.value);
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument{"line " + std::to_string(line.number) + ": " +
                                  error.what()};
    }
  }
  return spec;
}

sweep_axis parse_sweep_axis(std::string_view text) {
  const std::string_view t = trim_ascii(text);
  const std::size_t eq = t.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::invalid_argument{"sweep axis '" + std::string{t} +
                                "' must be key=lo:hi:step or key=v1,v2,..."};
  }
  sweep_axis axis;
  axis.key = std::string{trim_ascii(t.substr(0, eq))};
  const std::string_view values = trim_ascii(t.substr(eq + 1));
  if (values.empty()) {
    throw std::invalid_argument{"sweep axis '" + std::string{t} + "' has no values"};
  }

  if (values.find(':') != std::string_view::npos) {
    // Inclusive numeric range lo:hi:step.
    std::array<double, 3> parts{};
    std::size_t part = 0;
    std::size_t from = 0;
    for (std::size_t i = 0; i <= values.size(); ++i) {
      if (i == values.size() || values[i] == ':') {
        if (part >= 3) {
          throw std::invalid_argument{"sweep range '" + std::string{values} +
                                      "' must be lo:hi:step"};
        }
        parts[part++] = parse_double(axis.key, values.substr(from, i - from));
        from = i + 1;
      }
    }
    if (part != 3) {
      throw std::invalid_argument{"sweep range '" + std::string{values} +
                                  "' must be lo:hi:step"};
    }
    const auto [lo, hi, step] = parts;
    // Non-finite endpoints must be rejected up front: NaN slips past both
    // relational guards below (every comparison is false), so the point
    // count itself goes NaN and the size_t cast is UB — in practice a
    // near-2^63 count that loops forever.  inf - inf is the same trap.
    if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step)) {
      throw std::invalid_argument{"sweep range '" + std::string{values} +
                                  "': lo, hi and step must be finite"};
    }
    if (!(step > 0.0)) {
      throw std::invalid_argument{"sweep range '" + std::string{values} +
                                  "': step must be > 0"};
    }
    if (lo > hi) {
      throw std::invalid_argument{"sweep range '" + std::string{values} +
                                  "': lo must be <= hi"};
    }
    const double count_d = std::floor((hi - lo) / step + 1e-9) + 1.0;
    if (count_d > 10000.0) {
      throw std::invalid_argument{"sweep range '" + std::string{values} +
                                  "' expands to more than 10000 points"};
    }
    const auto count = static_cast<std::size_t>(count_d);
    char buffer[40];
    for (std::size_t i = 0; i < count; ++i) {
      // 12 significant digits keep grid points on the intended decimals
      // (0.55 + 2*0.05 prints as 0.65, not 0.65000000000000013) while
      // staying deterministic.
      std::snprintf(buffer, sizeof buffer, "%.12g", lo + static_cast<double>(i) * step);
      axis.values.emplace_back(buffer);
    }
  } else {
    std::size_t from = 0;
    for (std::size_t i = 0; i <= values.size(); ++i) {
      if (i == values.size() || values[i] == ',') {
        const std::string_view item = trim_ascii(values.substr(from, i - from));
        if (item.empty()) {
          throw std::invalid_argument{"sweep list '" + std::string{values} +
                                      "' has an empty value"};
        }
        axis.values.emplace_back(item);
        from = i + 1;
      }
    }
  }
  return axis;
}

std::vector<std::vector<std::pair<std::string, std::string>>> expand_sweep(
    std::span<const sweep_axis> axes) {
  std::size_t total = 1;
  for (const sweep_axis& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument{"sweep axis '" + axis.key + "' has no values"};
    }
    if (total > 100000 / axis.values.size()) {
      throw std::invalid_argument{"sweep grid exceeds 100000 runs"};
    }
    total *= axis.values.size();
  }
  std::vector<std::vector<std::pair<std::string, std::string>>> grid;
  grid.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    std::vector<std::pair<std::string, std::string>> point;
    point.reserve(axes.size());
    // Mixed-radix decomposition; the last axis varies fastest.
    std::size_t remainder = index;
    std::size_t radix = total;
    for (const sweep_axis& axis : axes) {
      radix /= axis.values.size();
      const std::size_t digit = remainder / radix;
      remainder %= radix;
      point.emplace_back(axis.key, axis.values[digit]);
    }
    grid.push_back(std::move(point));
  }
  return grid;
}

}  // namespace sgl::scenario
