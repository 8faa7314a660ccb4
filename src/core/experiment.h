#pragma once

/// \file experiment.h
/// Monte-Carlo estimation of the paper's performance measures, for *any*
/// dynamics_engine.
///
/// Both regret definitions (§2.2) are expectations over the joint law of
/// the process and the rewards:
///
///   Regret_N(T) = η₁ − (1/T) Σ_{t=1..T} Σ_j E[Q^{t−1}_j R^t_j],
///   Regret_∞(T) = η₁ − (1/T) Σ_{t=1..T} Σ_j E[P^{t−1}_j R^t_j],
///
/// estimated here by averaging the realized per-step group reward
/// Σ_j Q^{t−1}_j R^t_j over independent replications (each replication gets
/// its own derived RNG streams; see parallel.h for determinism).  For
/// non-stationary environments the benchmark is the per-step best mean
/// Σ_t η_best(t)/T, which coincides with η₁ in the stationary case.
///
/// The whole harness is one replication scheduler, run_points(): it takes
/// a list of runs (engine factory, environment factory, probe prototypes),
/// splits each run's replications into the fixed shards of reduce_layout
/// (support/parallel.h), and drains every (run × shard) work item in one
/// parallel_tasks call.  Each participant borrows a replication_context
/// (engine + environment built once from the two factories and validated,
/// reset() between replications) and advances it through the horizon
/// while every installed probe (core/probe.h) observes each step; a run's
/// shards merge in shard order once its last shard finishes.  The §2.2
/// estimates above are the regret probe's accumulators, the per-step
/// curves the trajectory probe's.
/// run_with_probes() is the one-run call; callers that start from a
/// scenario_spec go through scenario::run_sweep (scenario/sweep.h), which
/// builds the factories and calls run_points().

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/dynamics_engine.h"
#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/probe.h"
#include "env/reward_model.h"
#include "graph/graph.h"
#include "support/stats.h"

namespace sgl::core {

/// Builds a fresh environment instance.  Invoked once per worker context,
/// so every concurrent worker owns an independent instance.
using env_factory = std::function<std::unique_ptr<env::reward_model>()>;

/// Builds a fresh engine instance in its initial state (same independence
/// contract as env_factory).
using engine_factory = std::function<std::unique_ptr<dynamics_engine>()>;

/// Common Monte-Carlo knobs.
struct run_config {
  std::uint64_t horizon = 1000;     ///< T
  std::uint64_t replications = 100;
  std::uint64_t seed = 1;
  unsigned threads = 0;             ///< 0 = hardware concurrency
};

/// The runner's config validation, exposed so callers can reject a config
/// before costly set-up.  Throws std::invalid_argument on a zero horizon
/// or replication count.
void check_run_config(const run_config& config);

/// One worker's run state: engine + environment + per-step scratch
/// buffers, built from the two factories and validated once in the
/// constructor (engine/environment option-count match).  run() advances
/// one replication through the horizon on the streams derived from
/// (config.seed, replication) while `probes` observe each step; between
/// replications the context reset()s the engine and environment, which
/// returns both to their constructed state (dynamics_engine.h), so the
/// trajectory is bit-identical to a fresh build's.  run_points() pools
/// these per run; exposed so a hand replay of the harness (perfbench/) can
/// build one the same way.
class replication_context {
 public:
  /// The trailing bool is ignored (perfbench only; drop with the next
  /// [benchmark] PR).
  replication_context(const engine_factory& make_engine, const env_factory& make_env,
                      bool unused = false);

  /// Runs replication `replication` of the configured horizon, observed by
  /// `probes` (begin_replication / on_step / end_replication).
  void run(const run_config& config, std::uint64_t replication, const probe_list& probes);

  /// The engine, as the last run() left it (e.g. to read what it recorded).
  [[nodiscard]] const dynamics_engine& engine() const noexcept { return *engine_; }

 private:
  bool fresh_ = true;  ///< just built: the state is already initial
  std::unique_ptr<env::reward_model> environment_;
  std::unique_ptr<dynamics_engine> engine_;
  std::vector<std::uint8_t> rewards_;  ///< hoisted per-step R^t buffer
  std::vector<double> q_prev_;         ///< hoisted per-step Q^{t-1} buffer
};

/// One run for run_points(): the factories its replication contexts are
/// built from and the probes that observe it (cloned once per shard; the
/// prototypes themselves are never run).
struct run_request {
  engine_factory make_engine;
  env_factory make_env;
  probe_list prototypes;
};

/// Receives a completed run: its index in the request list, its merged
/// probes (one per prototype, in order) and its wall-clock seconds in
/// flight (first shard started to last shard finished).
using run_sink = std::function<void(std::size_t index, probe_list&& merged, double seconds)>;

/// THE Monte-Carlo scheduler: `config.replications` independent
/// replications of every run, each advanced `config.horizon` steps.  Every
/// run's replications split into reduce_layout's fixed shards; all (run ×
/// shard) items drain in one parallel_tasks call, so no thread idles
/// until the last run is done.  Each shard folds its replications, on the
/// streams rng::from_stream(config.seed, 2r[+1]), into its own probe
/// clones, and a run's shards merge in shard order — so a run's result is
/// bit-identical to scheduling it alone, for any thread count and any
/// interleaving.  When a run's last shard finishes, its engines and
/// factories are released and `on_point` receives the merge; calls are
/// serialized but arrive in completion order, not request order, and must
/// not throw.  `cancel` (nullptr = never) is polled before each item
/// starts; once set, unstarted items are skipped and their runs are never
/// delivered (running items finish, so there are no partial merges).
/// Returns the number of runs delivered.  Throws std::invalid_argument on
/// a zero horizon / replication count or an engine/environment
/// option-count mismatch, and rethrows the first exception of any item.
std::size_t run_points(std::vector<run_request> runs, const run_config& config,
                       const run_sink& on_point, const std::atomic<bool>* cancel = nullptr);

/// One run through run_points(): returns the merged probes, one per
/// prototype, in order (the prototypes themselves are not touched).
/// Throws as run_points.
[[nodiscard]] probe_list run_with_probes(const engine_factory& make_engine,
                                         const env_factory& make_env,
                                         const run_config& config,
                                         std::span<const probe* const> prototypes);

/// Engine factory for the infinite dynamics (optionally from a nonuniform
/// start, copied; each construction validates it).  Used by the scenario
/// layer and by callers that pair the engine with a custom environment
/// factory.
[[nodiscard]] engine_factory make_infinite_engine_factory(const dynamics_params& params,
                                                          std::span<const double> start = {});

/// Engine factory for the exact O(m) aggregate finite dynamics
/// (homogeneous, fully mixed).  Agent-based, networked and heterogeneous
/// populations are built by scenario::make_engine.
[[nodiscard]] engine_factory make_aggregate_engine_factory(const dynamics_params& params,
                                                           std::uint64_t num_agents);

}  // namespace sgl::core
