#include "scenario/serialize.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>

#include "support/json.h"  // json_number / json_escape
#include "support/json_parse.h"
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

/// Parses `text` as one JSON document; a syntax error names `key`.
json_value parse_json_value(std::string_view key, std::string_view text) {
  try {
    return parse_json(text);
  } catch (const std::invalid_argument& error) {
    fail(key, error.what());
  }
}

/// A string value: JSON-quoted ("...") or a bare token.
std::string parse_string(std::string_view key, std::string_view text) {
  const std::string_view t = trim_ascii(text);
  if (t.empty() || t.front() != '"') return std::string{t};
  return parse_json_value(key, t).text;
}

std::string quote(std::string_view s) { return '"' + json_escape(s) + '"'; }

/// A boolean value: bare or quoted `true` / `false`.
bool parse_bool(std::string_view key, std::string_view text) {
  const std::string parsed = parse_string(key, text);
  if (parsed == "true") return true;
  if (parsed == "false") return false;
  fail(key, "expected true or false, got '" + parsed + "'");
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

// --- value codecs -----------------------------------------------------------

constexpr const auto& names_of(engine_kind) { return k_engine_names; }
constexpr const auto& names_of(topology_spec::family_kind) { return k_topology_names; }
constexpr const auto& names_of(environment_spec::family_kind) { return k_environment_names; }
constexpr const auto& names_of(fault_action_spec::action_kind) { return k_fault_kind_names; }
constexpr const auto& names_of(fault_action_spec::link_class_kind) { return k_link_class_names; }

/// Parses a value of field type `T`; a vector is a JSON array of elements.
template <typename T>
T parse_value(std::string_view key, std::string_view text) {
  if constexpr (std::is_same_v<T, bool>) {
    return parse_bool(key, text);
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_double(key, text);
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(parse_unsigned(key, text));
  } else if constexpr (std::is_enum_v<T>) {
    return enum_value(key, text, names_of(T{}));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return parse_string(key, text);
  } else {
    const std::string_view t = trim_ascii(text);
    if (t.empty() || t.front() != '[') {
      fail(key, "expected an array like [a, b, c], got '" + std::string{t} + "'");
    }
    // A string element is its decoded text; a number is read from its raw
    // token like a scalar value, so `1e5` stays an exact integer.
    using element_type = typename T::value_type;
    T out;
    for (const json_value& element : parse_json_value(key, t).items) {
      if constexpr (std::is_same_v<element_type, std::string>) {
        if (!element.is_string()) fail(key, "expected an array of quoted strings");
        out.push_back(element.text);
      } else {
        if (!element.is_number()) fail(key, "expected an array of numbers");
        out.push_back(parse_value<element_type>(key, element.text));
      }
    }
    return out;
  }
}

/// The canonical text of a value, which parse_value reads back exactly.
template <typename T>
std::string format_value(std::string_view key, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return json_number(value);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_enum_v<T>) {
    return quote(enum_name(key, value, names_of(value)));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return quote(value);
  } else {
    std::string out = "[";
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ", ";
      out += format_value(key, value[i]);
    }
    out += ']';
    return out;
  }
}

// --- who reads a key ---------------------------------------------------------

/// A set of engines, one bit per engine_kind.
using engine_set = unsigned;

constexpr engine_set engines(std::initializer_list<engine_kind> kinds) {
  engine_set set = 0;
  for (const engine_kind kind : kinds) set |= 1U << static_cast<unsigned>(kind);
  return set;
}

constexpr engine_set k_every_engine = ~0U;
constexpr engine_set k_protocol = engines({engine_kind::protocol});

constexpr bool reads(engine_set readers, engine_kind engine) {
  return ((readers >> static_cast<unsigned>(engine)) & 1U) != 0;
}

/// Whether a spec running `engine` is inside a row's scope (the families
/// that read it).  Outside it a value is ignored, not refused.
using read_scope = bool (*)(const scenario_spec& spec, engine_kind engine);

bool always(const scenario_spec&, engine_kind) { return true; }

template <topology_spec::family_kind... Families>
bool topologies(const scenario_spec& spec, engine_kind) {
  return ((spec.topology.family == Families) || ...);
}

template <environment_spec::family_kind... Families>
bool environments(const scenario_spec& spec, engine_kind) {
  return ((spec.environment.family == Families) || ...);
}

/// num_agents' scope: N = 0 auto-selects the infinite engine, which ignores N.
bool finite(const scenario_spec&, engine_kind engine) { return engine != engine_kind::infinite; }

/// "key 'K' is read only by the A or B engine, but this spec's engine is 'E'".
std::string readers_message(std::string_view key, engine_set readers, engine_kind actual) {
  std::string message{"key '"};
  message += key;
  message += "' is read only by the ";
  std::string_view separator;
  for (const auto& [name, kind] : k_engine_names) {
    if (kind == engine_kind::auto_select || !reads(readers, kind)) continue;
    message += separator;
    message += name;
    separator = " or ";
  }
  message += " engine, but this spec's engine is '";
  message += enum_name(key, actual, k_engine_names);
  message += "'";
  return message;
}

/// Rejects a key the spec's chosen engine does not read, so that `--set`
/// and spec files never claim a configuration the run ignores.  A gated
/// key needs its engine set before it (canonical serialization emits
/// `engine` first, so round trips are unaffected).
[[noreturn]] void family_mismatch(std::string_view key, engine_set readers,
                                  engine_kind actual) {
  throw std::invalid_argument{"scenario " + readers_message(key, readers, actual) +
                              " — set a matching engine before it, or drop the key"};
}

// --- the key table ----------------------------------------------------------

using field_list = std::vector<std::pair<std::string, std::string>>;

/// One row of a key table: a key, who reads it, and its codec.  `Owner` is
/// scenario_spec for the spec's table and the entry type for an indexed
/// family's own table.  A row is read when the resolved engine is among its
/// `readers` and the spec is inside its `scope`.  When `readers` include
/// `auto` (the key can steer auto-selection) only a non-default value needs
/// a reading engine, and the key is always emitted.  Otherwise every value
/// needs one, and the key is emitted only for a reading engine, so that
/// parsing the canonical form never trips the gate.
template <typename Owner>
struct key_row {
  std::string_view key;  ///< for an indexed family, the "<family>" prefix
  engine_set readers;
  read_scope scope;
  bool indexed;  ///< matches "<key>.<index>.<field>" keys
  /// Parses `value` and stores it; `owner` is unchanged when this throws.
  void (*set)(const key_row& row, Owner& owner, std::string_view key,
              std::string_view value, engine_kind engine);
  /// Appends the row's (key, value) fields, each key behind `prefix`.
  void (*emit)(const key_row& row, const Owner& owner, std::string_view prefix,
               field_list& fields);
  /// Appends the keys the row accepts (an indexed family's as index 0).
  void (*names)(const key_row& row, std::string_view prefix, std::vector<std::string>& names);
  /// Whether the row holds its scenario_spec{} (or entry{}) default.
  bool (*is_default)(const Owner& owner);
};

template <typename Owner, std::size_t N>
const key_row<Owner>* find_row(const std::array<key_row<Owner>, N>& rows,
                               std::string_view key) {
  for (const key_row<Owner>& row : rows) {
    if (row.indexed ? key.size() > row.key.size() && key.starts_with(row.key) &&
                          key[row.key.size()] == '.'
                    : key == row.key) {
      return &row;
    }
  }
  return nullptr;
}

[[noreturn]] void unknown_key(std::string_view key);

/// A row for one field.  `Ref` is a captureless lambda that returns a
/// pointer to the field of the owner it is given, const or not, so one
/// lambda serves both parsing and emitting.
template <typename Owner = scenario_spec, typename Ref>
constexpr key_row<Owner> field(std::string_view key, Ref, engine_set readers = k_every_engine) {
  return {
      key, readers, always, false,
      [](const key_row<Owner>& row, Owner& owner, std::string_view k, std::string_view v,
         engine_kind engine) {
        using T = std::remove_cvref_t<decltype(*Ref{}(owner))>;
        const bool read = reads(row.readers, engine);
        if (!read && !reads(row.readers, engine_kind::auto_select)) {
          family_mismatch(k, row.readers, engine);
        }
        T value = parse_value<T>(k, v);
        if (!read && value != T{}) family_mismatch(k, row.readers, engine);
        *Ref{}(owner) = std::move(value);
      },
      [](const key_row<Owner>& row, const Owner& owner, std::string_view prefix,
         field_list& fields) {
        std::string key = std::string{prefix}.append(row.key);
        std::string value = format_value(key, *Ref{}(owner));
        fields.emplace_back(std::move(key), std::move(value));
      },
      [](const key_row<Owner>& row, std::string_view prefix, std::vector<std::string>& names) {
        names.push_back(std::string{prefix}.append(row.key));
      },
      [](const Owner& owner) {
        static const Owner defaults{};
        return *Ref{}(owner) == *Ref{}(defaults);
      }};
}

/// A row that every engine may set and only specs inside `scope` read.
template <typename Ref>
constexpr key_row<scenario_spec> field(std::string_view key, Ref ref, read_scope scope) {
  key_row<scenario_spec> row = field(key, ref);
  row.scope = scope;
  return row;
}

/// Fetches entry `index` of `entries`, appending one default entry when the
/// key addresses one past the end.
template <typename T>
T& addressed_entry(std::string_view key, std::vector<T>& entries, std::size_t index) {
  if (index == entries.size()) entries.emplace_back();
  if (index >= entries.size()) {
    fail(key, "index " + std::to_string(index) + " skips entries (list has " +
                  std::to_string(entries.size()) + ")");
  }
  return entries[index];
}

/// A row for the indexed family "<key>.<index>.<field>".  `Ref` points at
/// the entry vector and `Fields` is the entries' key table.  A key may
/// address one past the end to append an entry (how the text format builds
/// lists); the entry is decoded into a copy first, so a rejected key leaves
/// the list as it was.  Addressing an entry always leaves the list
/// non-empty, so every value needs a reading engine.
template <const auto& Fields, typename Ref>
constexpr key_row<scenario_spec> family(std::string_view key, Ref, engine_set readers) {
  return {
      key, readers, always, true,
      [](const key_row<scenario_spec>& row, scenario_spec& spec, std::string_view k,
         std::string_view v, engine_kind engine) {
        const std::string_view tail = k.substr(row.key.size() + 1);
        const std::size_t dot = tail.find('.');
        if (dot == std::string_view::npos) unknown_key(k);
        std::size_t index = 0;
        const auto [ptr, ec] = std::from_chars(tail.data(), tail.data() + dot, index);
        if (ec != std::errc{} || ptr != tail.data() + dot) unknown_key(k);
        const auto* field = find_row(Fields, tail.substr(dot + 1));
        if (field == nullptr) unknown_key(k);
        if (!reads(row.readers, engine)) family_mismatch(k, row.readers, engine);

        auto& entries = *Ref{}(spec);
        using entry_type = typename std::remove_reference_t<decltype(entries)>::value_type;
        entry_type entry = index < entries.size() ? entries[index] : entry_type{};
        field->set(*field, entry, k, v, engine);
        addressed_entry(k, entries, index) = std::move(entry);
      },
      [](const key_row<scenario_spec>& row, const scenario_spec& spec, std::string_view,
         field_list& fields) {
        const auto& entries = *Ref{}(spec);
        for (std::size_t i = 0; i < entries.size(); ++i) {
          const std::string prefix = std::string{row.key} + '.' + std::to_string(i) + '.';
          for (const auto& entry_field : Fields) {
            entry_field.emit(entry_field, entries[i], prefix, fields);
          }
        }
      },
      [](const key_row<scenario_spec>& row, std::string_view, std::vector<std::string>& names) {
        const std::string prefix = std::string{row.key} + ".0.";
        for (const auto& entry_field : Fields) entry_field.names(entry_field, prefix, names);
      },
      [](const scenario_spec& spec) { return Ref{}(spec)->empty(); }};
}

constexpr std::array k_fault_fields{
    field<fault_action_spec>("kind", [](auto& f) { return &f.kind; }),
    field<fault_action_spec>("at", [](auto& f) { return &f.at; }),
    field<fault_action_spec>("until", [](auto& f) { return &f.until; }),
    field<fault_action_spec>("targets", [](auto& f) { return &f.targets; }),
    field<fault_action_spec>("fraction", [](auto& f) { return &f.fraction; }),
    field<fault_action_spec>("link_class", [](auto& f) { return &f.link_class; }),
    field<fault_action_spec>("base_latency", [](auto& f) { return &f.base_latency; }),
    field<fault_action_spec>("jitter_mean", [](auto& f) { return &f.jitter_mean; }),
    field<fault_action_spec>("drop_probability", [](auto& f) { return &f.drop_probability; }),
};

constexpr std::array k_group_fields{
    field<core::rule_group>("size", [](auto& g) { return &g.size; }),
    field<core::rule_group>("alpha", [](auto& g) { return &g.rule.alpha; }),
    field<core::rule_group>("beta", [](auto& g) { return &g.rule.beta; }),
};

constexpr std::array k_rule_fields{
    field<core::adoption_rule>("alpha", [](auto& r) { return &r.alpha; }),
    field<core::adoption_rule>("beta", [](auto& r) { return &r.beta; }),
};

using enum topology_spec::family_kind;
using enum environment_spec::family_kind;

/// Every key of the text format, in canonical serialization order.
constexpr std::array k_spec_keys{
    field("name", [](auto& s) { return &s.name; }),
    field("description", [](auto& s) { return &s.description; }),
    field("engine", [](auto& s) { return &s.engine; }),
    field("num_agents", [](auto& s) { return &s.num_agents; }, finite),
    field("params.num_options", [](auto& s) { return &s.params.num_options; }),
    field("params.mu", [](auto& s) { return &s.params.mu; }),
    field("params.beta", [](auto& s) { return &s.params.beta; }),
    field("params.alpha", [](auto& s) { return &s.params.alpha; }),
    field("environment.family", [](auto& s) { return &s.environment.family; }),
    field("environment.etas", [](auto& s) { return &s.environment.etas; }),
    field("environment.end_etas", [](auto& s) { return &s.environment.end_etas; },
          environments<drifting>),
    field("environment.period", [](auto& s) { return &s.environment.period; },
          environments<switching>),
    field("environment.horizon", [](auto& s) { return &s.environment.horizon; },
          environments<drifting>),
    field("topology.family", [](auto& s) { return &s.topology.family; },
          engines({engine_kind::auto_select, engine_kind::agent_based, engine_kind::protocol})),
    field("topology.rows", [](auto& s) { return &s.topology.rows; }, topologies<grid, torus>),
    field("topology.cols", [](auto& s) { return &s.topology.cols; }, topologies<grid, torus>),
    field("topology.edge_probability", [](auto& s) { return &s.topology.edge_probability; },
          topologies<erdos_renyi>),
    field("topology.degree", [](auto& s) { return &s.topology.degree; },
          topologies<watts_strogatz, barabasi_albert>),
    field("topology.rewire_probability", [](auto& s) { return &s.topology.rewire_probability; },
          topologies<watts_strogatz>),
    field("topology.bridges", [](auto& s) { return &s.topology.bridges; }, topologies<two_cliques>),
    field("topology.seed", [](auto& s) { return &s.topology.seed; },
          topologies<erdos_renyi, watts_strogatz, barabasi_albert>),
    field("protocol.round_interval", [](auto& s) { return &s.protocol.round_interval; },
          k_protocol),
    field("protocol.base_latency", [](auto& s) { return &s.protocol.base_latency; }, k_protocol),
    field("protocol.jitter_mean", [](auto& s) { return &s.protocol.jitter_mean; }, k_protocol),
    field("protocol.drop_probability", [](auto& s) { return &s.protocol.drop_probability; },
          k_protocol),
    field("protocol.max_retries", [](auto& s) { return &s.protocol.max_retries; }, k_protocol),
    field("protocol.crash_rate", [](auto& s) { return &s.protocol.crash_rate; }, k_protocol),
    field("protocol.restart_rate", [](auto& s) { return &s.protocol.restart_rate; }, k_protocol),
    field("protocol.sticky", [](auto& s) { return &s.protocol.sticky; }, k_protocol),
    field("protocol.lockstep", [](auto& s) { return &s.protocol.lockstep; }, k_protocol),
    field("faults.record", [](auto& s) { return &s.faults.record; }, k_protocol),
    field("faults.record_capacity", [](auto& s) { return &s.faults.record_capacity; },
          k_protocol),
    family<k_fault_fields>("faults", [](auto& s) { return &s.faults.actions; }, k_protocol),
    field("start", [](auto& s) { return &s.start; },
          engines({engine_kind::auto_select, engine_kind::infinite})),
    field("probes", [](auto& s) { return &s.probes; }),
    family<k_group_fields>("groups", [](auto& s) { return &s.groups; },
                           engines({engine_kind::auto_select, engine_kind::grouped})),
    family<k_rule_fields>("agent_rules", [](auto& s) { return &s.agent_rules; },
                          engines({engine_kind::auto_select, engine_kind::agent_based})),
};

[[noreturn]] void unknown_key(std::string_view key) {
  std::string message{"unknown scenario key '"};
  message += key;
  message += "'";
  std::vector<std::string> names;
  for (const key_row<scenario_spec>& row : k_spec_keys) row.names(row, "", names);
  const std::vector<std::string_view> candidates{names.begin(), names.end()};
  const std::string suggestion = closest_name(key, candidates);
  if (!suggestion.empty()) {
    message += " (did you mean '";
    message += suggestion;
    message += "'?)";
  }
  throw std::invalid_argument{message};
}

}  // namespace

void apply_override(scenario_spec& spec, std::string_view key, std::string_view value) {
  const std::string_view k = trim_ascii(key);
  const key_row<scenario_spec>* row = find_row(k_spec_keys, k);
  if (row == nullptr) unknown_key(k);
  row->set(*row, spec, k, trim_ascii(value), spec.engine);
}

void apply_override(scenario_spec& spec, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos) {
    throw std::invalid_argument{"override '" + std::string{assignment} +
                                "' must be key=value"};
  }
  apply_override(spec, assignment.substr(0, eq), assignment.substr(eq + 1));
}

std::string_view engine_name(engine_kind kind) {
  return enum_name("engine", kind, k_engine_names);
}

std::vector<std::pair<std::string, std::string>> scenario_fields(
    const scenario_spec& spec) {
  field_list fields;
  for (const key_row<scenario_spec>& row : k_spec_keys) {
    if (reads(row.readers, spec.engine) || reads(row.readers, engine_kind::auto_select)) {
      row.emit(row, spec, "", fields);
    }
  }
  return fields;
}

std::vector<std::pair<std::string, std::string>> read_fields(const scenario_spec& spec) {
  // Unread rows are written from the defaults, with the infinite engine's N.
  static const scenario_spec canonical = parse_scenario("num_agents = 0");
  const engine_kind engine = resolved_engine(spec);
  field_list fields;
  for (const key_row<scenario_spec>& row : k_spec_keys) {
    if (reads(row.readers, spec.engine) || reads(row.readers, engine_kind::auto_select)) {
      const bool read = reads(row.readers, engine) && row.scope(spec, engine);
      row.emit(row, read ? spec : canonical, "", fields);
    }
  }
  return fields;
}

std::string stranded_key_error(const scenario_spec& spec, engine_kind engine) {
  for (const key_row<scenario_spec>& row : k_spec_keys) {
    if (reads(row.readers, engine) || row.is_default(spec)) continue;
    return readers_message(row.key, row.readers, engine) +
           " (set a matching engine or drop the key)";
  }
  return {};
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
