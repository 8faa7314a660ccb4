#pragma once

/// \file registry.h
/// The catalog of named scenarios.  Each entry is a file,
/// scenarios/<name>.scn, in the scenario text format (serialize.h); the
/// build embeds the files, so a lookup reads no file at run time.  Callers
/// fetch a spec, override whatever fields their sweep varies (horizon, N,
/// β, …), and run it with run_probes or run_sweep.  The CLI lists and runs
/// these by name; the benchmarks, the service tests and
/// examples/quickstart.cpp start from them instead of hand-rolling setup.

#include <span>
#include <string_view>

#include "scenario/scenario.h"

namespace sgl::scenario {

/// Every catalog scenario, in file-name order.  Parses every file once, on
/// the first call.
[[nodiscard]] std::span<const scenario_spec> all_scenarios();

/// Looks a scenario up by name and parses only its file; throws
/// std::invalid_argument (listing the known names) when unknown.  Returns
/// a fresh spec, ready to override.
[[nodiscard]] scenario_spec get_scenario(std::string_view name);

}  // namespace sgl::scenario
