#pragma once

/// \file serialize.h
/// The canonical text form of a scenario_spec (DESIGN.md "Scenario text
/// format v1"): one `key = value` line per field, flat dotted keys
/// (`params.beta`, `topology.family`, `groups.0.size`), JSON-compatible
/// values (numbers, "quoted strings", [arrays], with `#` comments).  The
/// same key/value grammar powers three surfaces:
///
///   * files        — `parse_scenario(text)` builds a spec from a partial
///                    or complete field list (missing keys keep defaults);
///   * overrides    — `apply_override(spec, "params.beta=0.7")` is the
///                    CLI's `--set`, applied on top of any base spec;
///   * sweeps       — `parse_sweep_axis("params.beta=0.55:0.75:0.05")`
///                    expands one key over a value grid, and
///                    `expand_sweep` takes the cartesian product.
///
/// serialize_scenario emits every field in a canonical order with exact
/// round-trip number formatting, so `parse_scenario(serialize_scenario(s))`
/// runs bit-identically to `s` (tested over the whole catalog).  The only
/// field outside the format is `prebuilt_graph` (a runtime-only handle).

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/scenario.h"

namespace sgl::scenario {

/// The spec as flat (key, value) pairs in canonical order.  Values use the
/// text format's JSON-compatible syntax verbatim, so they can be embedded
/// in a JSON document without re-encoding (the CLI's spec echo).
[[nodiscard]] std::vector<std::pair<std::string, std::string>> scenario_fields(
    const scenario_spec& spec);

/// scenario_fields as a run of `spec` reads them: a row that the resolved
/// engine or the spec's family does not read is written at its canonical
/// value, the scenario_spec{} default except num_agents = 0.  The service
/// digest and the topology cache key are built from this list.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> read_fields(
    const scenario_spec& spec);

/// The error naming the first key that `spec` sets off its scenario_spec{}
/// default although `engine` does not read it; empty when there is none.
[[nodiscard]] std::string stranded_key_error(const scenario_spec& spec, engine_kind engine);

/// The `engine` key's value naming `kind` ("auto", "infinite", "aggregate",
/// "agent_based", "grouped", "protocol").
[[nodiscard]] std::string_view engine_name(engine_kind kind);

/// Canonical text form: a `key = value` line per scenario_fields entry.
[[nodiscard]] std::string serialize_scenario(const scenario_spec& spec);

/// One non-blank line of the text form: its 1-based line number and the
/// trimmed key and value around the first '=', trailing `#` comment removed.
struct text_line {
  std::size_t number = 0;
  std::string_view key;
  std::string_view value;
};

/// Splits the text form into its `key = value` lines (views into `text`).
/// Throws std::invalid_argument with the line number on a line without '='.
[[nodiscard]] std::vector<text_line> split_lines(std::string_view text);

/// Parses the text form into a spec.  Keys may appear in any order and be
/// any subset (unset fields keep their defaults); later lines win.  Throws
/// std::invalid_argument with the 1-based line number on malformed lines,
/// unknown keys (suggesting the nearest known key), or bad values.
[[nodiscard]] scenario_spec parse_scenario(std::string_view text);

/// Applies one dotted-key override.  Same keys and value syntax as the
/// file format; `groups.N.*` / `agent_rules.N.*` / `faults.N.*` may address
/// one past the end to append an entry.  Throws std::invalid_argument on
/// unknown keys (with a suggestion), keys the spec's engine does not read,
/// or bad values; a rejected override leaves `spec` unchanged.
void apply_override(scenario_spec& spec, std::string_view key, std::string_view value);

/// `--set` form: "key=value".
void apply_override(scenario_spec& spec, std::string_view assignment);

/// One sweep axis: a key and the value texts it takes, in order.
struct sweep_axis {
  std::string key;
  std::vector<std::string> values;
};

/// Parses `key=lo:hi:step` (inclusive numeric range of JSON numbers; values
/// are rounded to 12 significant digits) or `key=v1,v2,...` (explicit list,
/// any value syntax).  Throws std::invalid_argument on malformed axes,
/// step <= 0, lo > hi, or absurd grids (> 10000 points per axis).
[[nodiscard]] sweep_axis parse_sweep_axis(std::string_view text);

/// The cartesian product of the axes, in deterministic order: the last
/// axis varies fastest.  Each grid point lists (key, value) assignments to
/// apply_override on a copy of the base spec.  Two axes on one key throw.
[[nodiscard]] std::vector<std::vector<std::pair<std::string, std::string>>> expand_sweep(
    std::span<const sweep_axis> axes);

}  // namespace sgl::scenario
