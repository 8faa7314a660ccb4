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
/// The whole harness is one generic runner, run_with_probes(): each worker
/// borrows a replication_context (engine + environment built from the two
/// factories, validated once, reset() between replications when both sides
/// are reusable()), advances it through the horizon, and every installed
/// probe (core/probe.h) observes each step and is reduced deterministically
/// across replications.  The §2.2 estimates above are the regret probe's
/// accumulators, the per-step curves the trajectory probe's; callers that
/// start from a scenario_spec go through scenario::run_probes /
/// scenario::run_sweep, which build the factories and call this runner.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

/// Builds a fresh environment instance.  Invoked once per worker context —
/// and again per replication only when the instance is not reusable() — so
/// every concurrent worker owns an independent instance.
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

  /// Reuse one engine/environment instance per worker across replications
  /// (reset() between) instead of reconstructing, whenever both sides
  /// report reusable().  Trajectories are bit-identical either way — the
  /// switch exists for A/B verification and for exotic factories; leave it
  /// on.  At large N reconstruction is the dominant per-replication cost
  /// (buffer allocation + the committed-neighbour-view rebuild), so
  /// turning this off is a measurable slowdown (bench/harness_bench.cpp).
  bool reuse = true;
};

/// The runner's config validation, shared with external schedulers
/// (scenario/sweep.cpp) so they reject exactly what run_with_probes would.
/// Throws std::invalid_argument on a zero horizon or replication count.
void check_run_config(const run_config& config);

/// One worker's run state: engine + environment + per-step scratch
/// buffers, built from the borrowed factories and validated once (engine/
/// environment option-count match; network engines clamped to one internal
/// thread when replications run concurrently).  run() advances one
/// replication through the horizon on the streams derived from
/// (config.seed, replication) while `probes` observe each step; between
/// replications the context reset()s the engine and environment when both
/// report reusable() (and config.reuse allows it), and reconstructs them
/// otherwise — the trajectory is bit-identical either way.  The factories
/// must outlive the context.  Exposed so schedulers outside this file (the
/// sweep scheduler in scenario/sweep.h) drive replications through the
/// exact same code path.
class replication_context {
 public:
  replication_context(const engine_factory& make_engine, const env_factory& make_env,
                      bool clamp_engine_threads);

  /// Runs replication `replication` of the configured horizon, observed by
  /// `probes` (begin_replication / on_step / end_replication).
  void run(const run_config& config, std::uint64_t replication, const probe_list& probes);

 private:
  void rebuild();

  const engine_factory& make_engine_;
  const env_factory& make_env_;
  bool clamp_engine_threads_;
  bool reusable_ = false;  ///< engine && environment both report reusable()
  bool fresh_ = true;      ///< just (re)built: the state is already initial
  std::unique_ptr<env::reward_model> environment_;
  std::unique_ptr<dynamics_engine> engine_;
  std::vector<std::uint8_t> rewards_;  ///< hoisted per-step R^t buffer
  std::vector<double> q_prev_;         ///< hoisted per-step Q^{t-1} buffer
};

/// A checkout pool of replication_contexts: workers borrow one per
/// replication (or per shard) and return it, so the number of live
/// engine/environment instances tracks the *concurrency*, not the
/// replication count.  Thread-safe; the factories must outlive the pool.
class context_pool {
 public:
  context_pool(const engine_factory& make_engine, const env_factory& make_env,
               bool clamp_engine_threads)
      : make_engine_{make_engine},
        make_env_{make_env},
        clamp_engine_threads_{clamp_engine_threads} {}

  /// RAII borrow: releases the context back to the pool on destruction.
  class lease {
   public:
    lease(context_pool& pool, std::unique_ptr<replication_context> context) noexcept
        : pool_{pool}, context_{std::move(context)} {}
    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;
    ~lease() { pool_.release(std::move(context_)); }
    replication_context* operator->() const noexcept { return context_.get(); }

   private:
    context_pool& pool_;
    std::unique_ptr<replication_context> context_;
  };

  /// Pops a pooled context, or builds (and validates) a fresh one.
  [[nodiscard]] lease borrow();

 private:
  void release(std::unique_ptr<replication_context> context);

  const engine_factory& make_engine_;
  const env_factory& make_env_;
  bool clamp_engine_threads_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<replication_context>> free_;
};

/// THE Monte-Carlo harness: `config.replications` independent replications,
/// each built from the two factories and advanced `config.horizon` steps
/// while every probe in `prototypes` observes it.  Each parallel shard
/// works on clone()s of the prototypes; shards are merged in fixed shard
/// order, so results are bit-identical for any thread count.  Returns the
/// merged probes, one per prototype, in order (the prototypes themselves
/// are not touched).  Throws std::invalid_argument on a zero horizon /
/// replication count or an engine/environment option-count mismatch.
[[nodiscard]] probe_list run_with_probes(const engine_factory& make_engine,
                                         const env_factory& make_env,
                                         const run_config& config,
                                         std::span<const probe* const> prototypes);

/// Engine factory for the infinite dynamics (optionally from a nonuniform
/// start, copied).  Used by the scenario layer and by callers that pair the
/// engine with a custom environment factory.
[[nodiscard]] engine_factory make_infinite_engine_factory(const dynamics_params& params,
                                                          std::span<const double> start = {});

/// Engine factory for the exact O(m) aggregate finite dynamics
/// (homogeneous, fully mixed).  Agent-based, networked and heterogeneous
/// populations are built by scenario::make_engine.
[[nodiscard]] engine_factory make_finite_engine_factory(const dynamics_params& params,
                                                        std::uint64_t num_agents);

}  // namespace sgl::core
