#pragma once

/// \file probe.h
/// Composable measurement probes for the Monte-Carlo runner.
///
/// The paper's §2.2 measures (regret, best-option mass) are one reduction
/// among many, not a result shape hard-coded into the runner.  A probe
/// decouples "what the run computes" from "how the run is driven": the
/// runner advances each replication through the horizon and shows every
/// step to every installed probe; the probe accumulates whatever it wants,
/// finalizes once per replication, and merges across replications
/// deterministically.
///
/// Contract (normative — see DESIGN.md "Probe contract"):
///   * probes never consume the process or reward RNG streams, so adding or
///     removing probes cannot change a trajectory;
///   * clone() produces an empty accumulator of the same configuration, one
///     per parallel shard;
///   * merge(other) folds a clone produced by the same prototype into this
///     one; the runner merges shards in fixed shard order, so results are
///     bit-identical for every thread count;
///   * report() is the machine-readable result: named scalars (optionally
///     with a 95% CI half-width) and named series.  It is the only way to
///     read a probe: make_probe builds one by name, and the implementations
///     are private to probe.cpp.
///
/// Built-in probes:
///   regret            — the §2.2 scalar estimates (regret, average reward,
///                       best mass, final best mass, empty-step fraction).
///   trajectory        — per-step running-regret / best-mass / min-popularity
///                       curves.
///   hitting_time(eps) — consensus: first t with Q^t_{best(t)} >= 1 - eps.
///   popularity_floor(floor)
///                     — min_{t,j} Q^t_j per replication and, when a floor is
///                       given, the per-step violation rate (§4.3.2 audit).
///   final_histogram   — per-option mean of the final popularity Q^T.
///   recovery(eps)     — steps from each best-option switch until
///                       Q^t_{best(t)} >= 1 - eps again (§6 "stocks").
///
/// Analysis probes (each applies to one engine and reports zero
/// replications for everything else; none takes an argument):
///   concentration     — exact aggregate engine: the per-step stage and
///                       adopter counts against Props 4.1–4.3's radii.
///   coupling          — exact aggregate engine: Lemma 4.5's coupling with
///                       a shadow infinite-population run on the same
///                       rewards, and the 1/√N sampling noise it isolates.
///   proof_audit       — infinite engine from the uniform start, inside the
///                       theorem regime: the worst slack of §5's pathwise
///                       potential and regret inequalities.
///
/// Protocol probes (meaningful for engines implementing
/// core::net_instrumented — the netsim-backed gossip engine; they report
/// zero replications for everything else):
///   message_cost      — messages / bytes / timers per round, drop rate.
///   commit_latency    — mean rounds an uncommitted spell lasts before the
///                       node commits, and commit events per round.
///   adoption          — committed and alive fractions (mean over rounds
///                       and final) — the churn view of convergence.
///   partition_divergence(eps)
///                     — per-side disagreement while a scheduled partition
///                       is active, and steps from the heal until the sides
///                       agree to within eps again (re-convergence).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamics_engine.h"
#include "env/reward_model.h"

namespace sgl::core {

/// One named number in a probe report; `half_width` is a 95% CI when
/// `has_ci` is set.
struct probe_scalar {
  std::string key;
  double value = 0.0;
  double half_width = 0.0;
  bool has_ci = false;
};

/// One named per-index series in a probe report.
struct probe_series {
  std::string key;
  std::vector<double> values;
};

/// The machine-readable result of one probe after all merges.
struct probe_report {
  std::string probe;
  std::vector<probe_scalar> scalars;
  std::vector<probe_series> series;

  /// The scalar with the given key; nullptr when absent.
  [[nodiscard]] const probe_scalar* find_scalar(std::string_view key) const noexcept;
  /// The series with the given key; nullptr when absent.
  [[nodiscard]] const probe_series* find_series(std::string_view key) const noexcept;
};

/// What a probe sees each step.  All spans borrow the runner's buffers and
/// are only valid during the on_step call.
struct probe_step_view {
  std::uint64_t t = 0;                        ///< 1-based step index
  std::uint64_t horizon = 0;                  ///< T of this run
  std::span<const double> popularity_before;  ///< Q^{t-1}
  std::span<const std::uint8_t> rewards;      ///< R^t
  const dynamics_engine& engine;              ///< post-step state (Q^t, ...)
  const env::reward_model& environment;
};

class probe {
 public:
  virtual ~probe() = default;

  /// Stable name used in reports and by the probe spec grammar.
  [[nodiscard]] virtual std::string name() const = 0;

  /// An empty accumulator with this probe's configuration (one per shard).
  [[nodiscard]] virtual std::unique_ptr<probe> clone() const = 0;

  /// Called before the first step of every replication.
  virtual void begin_replication(std::uint64_t horizon) = 0;

  /// Called after every engine step.
  virtual void on_step(const probe_step_view& step) = 0;

  /// Called after the last step of a replication, with the engine in its
  /// final state.
  virtual void end_replication(const dynamics_engine& engine,
                               const env::reward_model& environment,
                               std::uint64_t horizon) = 0;

  /// Folds a sibling clone into this accumulator.  The runner calls this in
  /// fixed shard order; implementations must be deterministic functions of
  /// (this, other) so results are thread-count-independent.
  virtual void merge(const probe& other) = 0;

  [[nodiscard]] virtual probe_report report() const = 0;
};

using probe_list = std::vector<std::unique_ptr<probe>>;

// --- probe spec grammar -----------------------------------------------------

/// Builds a probe from a spec string: `name` or `name(key=value, ...)`.
///   regret | trajectory | final_histogram
///   hitting_time(eps=0.1) | recovery(eps=0.5) | popularity_floor(floor=0)
///   concentration | coupling | proof_audit
///   message_cost | commit_latency | adoption | partition_divergence(eps=0.1)
/// Throws std::invalid_argument on unknown names (listing the known ones,
/// suggesting the nearest), unknown argument keys, or malformed values.
[[nodiscard]] std::unique_ptr<probe> make_probe(std::string_view spec);

/// Splits a comma-separated list of probe specs into its spec strings
/// (commas inside parentheses belong to the spec); blank items are dropped.
[[nodiscard]] std::vector<std::string> split_probe_specs(std::string_view text);

/// Builds one probe per spec string.
[[nodiscard]] probe_list make_probes(std::span<const std::string> specs);

/// report() of every probe in the list, in order.
[[nodiscard]] std::vector<probe_report> collect_reports(const probe_list& probes);

}  // namespace sgl::core
