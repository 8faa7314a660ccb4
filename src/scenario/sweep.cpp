#include "scenario/sweep.h"

#include <utility>

#include "scenario/serialize.h"

namespace sgl::scenario {

std::size_t run_sweep_streaming(
    const scenario_spec& base,
    std::span<const std::vector<std::pair<std::string, std::string>>> grid,
    const core::run_config& config, std::span<const std::string> probe_specs,
    const sweep_stream_hooks& hooks) {
  core::check_run_config(config);
  const std::size_t points = grid.empty() ? 1 : grid.size();

  // Resolve and validate every point before any work runs: overrides
  // applied, factories built (make_engine runs validate_spec, and is where
  // topology sharing happens: identical keys resolve to one cached graph).
  std::vector<sweep_point_result> results(points);
  std::vector<core::run_request> runs(points);
  for (std::size_t p = 0; p < points; ++p) {
    sweep_point_result& result = results[p];
    result.spec = base;
    if (!grid.empty()) result.assignments = grid[p];
    for (const auto& [key, value] : result.assignments) apply_override(result.spec, key, value);
    runs[p].make_engine = make_engine(result.spec);
    runs[p].make_env = make_environment(result.spec.environment);
    runs[p].prototypes = core::make_probes(resolved_probes(result.spec, probe_specs));
  }

  return core::run_points(
      std::move(runs), config,
      [&](std::size_t index, core::probe_list&& merged, double seconds) {
        sweep_point_result& result = results[index];
        result.probes = std::move(merged);
        result.seconds = seconds;
        if (hooks.on_point) hooks.on_point(index, std::move(result));
      },
      hooks.cancel);
}

std::vector<sweep_point_result> run_sweep(
    const scenario_spec& base,
    std::span<const std::vector<std::pair<std::string, std::string>>> grid,
    const core::run_config& config, std::span<const std::string> probe_specs) {
  const std::size_t points = grid.empty() ? 1 : grid.size();
  std::vector<sweep_point_result> results(points);

  sweep_stream_hooks hooks;
  hooks.on_point = [&results](std::size_t index, sweep_point_result&& result) {
    results[index] = std::move(result);
  };
  run_sweep_streaming(base, grid, config, probe_specs, hooks);
  return results;
}

}  // namespace sgl::scenario
