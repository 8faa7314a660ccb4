#pragma once

/// \file sweep.h
/// The spec-level entry point of the harness: a parameter grid in, one
/// merged probe list per grid point out.
///
/// run_sweep applies every point's overrides to the base spec, validates
/// all points and builds their factories and probes before any
/// replication runs, and hands the whole grid to core::run_points
/// (core/experiment.h) as one list of runs.  That scheduler flattens the
/// grid into (point × replication-shard) work items of one parallel_tasks
/// call (support/parallel.h): every thread stays busy until the
/// whole grid drains, engines are reused through each point's context
/// pool, and points that share a topology key share one built graph
/// (scenario.h, shared_topology).  scenario::run_probes is a one-point
/// run_sweep, so there is one way to run a scenario.
///
/// Determinism comes from run_points: each point's shard decomposition,
/// per-replication RNG streams (rng::from_stream(seed, 2r[+1])) and
/// shard-order merge do not depend on the other points, so every point's
/// merged probes are bit-identical to running that point alone — for any
/// thread count and any interleaving (tested in
/// tests/harness_determinism_test.cpp).

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/scenario.h"

namespace sgl::scenario {

/// One grid point's outcome.
struct sweep_point_result {
  scenario_spec spec;  ///< the base spec with this point's overrides applied
  std::vector<std::pair<std::string, std::string>> assignments;  ///< the overrides
  core::probe_list probes;  ///< merged probes, in probe-spec order
  /// Wall-clock seconds this point spent in flight (first shard started to
  /// last shard finished).  Points overlap under the flattened scheduler,
  /// so these can sum to more than the sweep's elapsed time.
  double seconds = 0.0;
};

/// Incremental delivery and cancellation for the flattened scheduler —
/// what a long-lived caller (the sociolearnd job queue) needs that the
/// batch entry point below cannot give it.
struct sweep_stream_hooks {
  /// Called once per *completed* grid point, with its grid index and
  /// merged result, as soon as the point's last shard finishes.  Invoked
  /// from worker threads but serialized by an internal mutex; points
  /// complete in scheduler order, not grid order.  Must not throw.
  std::function<void(std::size_t index, sweep_point_result&&)> on_point;

  /// Polled (acquire) before each (point × shard) work item starts; once
  /// true, every not-yet-started item is skipped.  Shards already running
  /// finish normally, so a point either completes exactly as it would
  /// have uncancelled (and reaches on_point) or never reaches on_point at
  /// all — there are no partial merges.  nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

/// Runs every grid point (a list of key=value override assignments, as
/// produced by expand_sweep; an empty grid means one point with no
/// overrides) of `base` under one flattened schedule.  `probe_specs`
/// chooses the measurements for every point, resolved per point by
/// resolved_probes (the spec's own `probes`, else {"regret"}, when empty).
/// All points are overridden and their factories built (make_engine runs
/// validate_spec) before any replication runs, so errors surface before
/// work — and before any caller output — starts.  Returns the results in
/// grid order.  Throws as core::run_points / apply_override / validate_spec.
[[nodiscard]] std::vector<sweep_point_result> run_sweep(
    const scenario_spec& base,
    std::span<const std::vector<std::pair<std::string, std::string>>> grid,
    const core::run_config& config, std::span<const std::string> probe_specs = {});

/// The streaming/cancellable form run_sweep wraps: identical validation
/// and scheduling (so per-point results are bit-identical to run_sweep's),
/// but results flow through hooks.on_point as points complete instead of
/// being collected.
/// Returns the number of points that completed (== the grid size unless
/// hooks.cancel fired).  Throws as run_sweep.
std::size_t run_sweep_streaming(
    const scenario_spec& base,
    std::span<const std::vector<std::pair<std::string, std::string>>> grid,
    const core::run_config& config, std::span<const std::string> probe_specs,
    const sweep_stream_hooks& hooks);

}  // namespace sgl::scenario
