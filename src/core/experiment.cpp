#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "support/parallel.h"
#include "support/rng.h"

namespace sgl::core {

void check_run_config(const run_config& config) {
  if (config.horizon == 0) throw std::invalid_argument{"run_config: horizon must be >= 1"};
  if (config.replications == 0) {
    throw std::invalid_argument{"run_config: need >= 1 replication"};
  }
}

replication_context::replication_context(const engine_factory& make_engine,
                                         const env_factory& make_env, bool /*unused*/)
    : environment_{make_env()}, engine_{make_engine()} {
  if (environment_->num_options() != engine_->num_options()) {
    throw std::invalid_argument{"run_with_probes: engine/environment option-count mismatch"};
  }
  const std::size_t m = environment_->num_options();
  rewards_.assign(m, 0);
  q_prev_.assign(m, 0.0);
}

void replication_context::run(const run_config& config, std::uint64_t replication,
                              const probe_list& probes) {
  // Back to the constructed state; a new context is already there, and a
  // reset costs O(N + E) on a network engine.
  if (fresh_) {
    fresh_ = false;
  } else {
    engine_->reset();
    environment_->reset();
  }

  env::reward_model& environment = *environment_;
  dynamics_engine& engine = *engine_;
  rng reward_gen = rng::from_stream(config.seed, 2 * replication);
  rng process_gen = rng::from_stream(config.seed, 2 * replication + 1);

  for (const auto& probe : probes) probe->begin_replication(config.horizon);

  for (std::uint64_t t = 1; t <= config.horizon; ++t) {
    // Q^{t-1} must be *copied* out: popularity() is a view into engine
    // storage that step() overwrites in place, so handing the span itself
    // to the probes would alias the post-step Q^t.  Every engine mutates
    // its popularity buffer in place (that is what makes reset() cheap),
    // so there is no engine for which the copy could be dropped; at m
    // doubles it is far below one sampler draw anyway.
    const auto popularity_now = engine.popularity();
    std::copy(popularity_now.begin(), popularity_now.end(), q_prev_.begin());

    environment.sample(t, reward_gen, rewards_);
    engine.step(rewards_, process_gen);

    const probe_step_view view{.t = t,
                               .horizon = config.horizon,
                               .popularity_before = q_prev_,
                               .rewards = rewards_,
                               .engine = engine,
                               .environment = environment};
    for (const auto& probe : probes) probe->on_step(view);
  }

  for (const auto& probe : probes) {
    probe->end_replication(engine, environment, config.horizon);
  }
}

namespace {

/// Everything one run needs while its shards are in flight.
struct run_state {
  run_request request;
  std::mutex contexts_mutex;
  /// Contexts no shard is using.  A shard borrows one and returns it, so
  /// the number of live engine/environment instances tracks the
  /// *concurrency*, not the shard count.
  std::vector<std::unique_ptr<replication_context>> free_contexts;
  std::vector<probe_list> shard_probes;  // merged in shard order at the end
  std::atomic<std::size_t> shards_left{0};
  std::atomic<bool> skipped{false};  // a shard was cancelled: never merge/deliver
  std::atomic<std::int64_t> start_ns{0};  // set by the first shard to start

  /// Pops a pooled context, or builds (and validates) a fresh one.
  std::unique_ptr<replication_context> borrow_context() {
    {
      const std::scoped_lock lock{contexts_mutex};
      if (!free_contexts.empty()) {
        auto context = std::move(free_contexts.back());
        free_contexts.pop_back();
        return context;
      }
    }
    return std::make_unique<replication_context>(request.make_engine, request.make_env);
  }

  void return_context(std::unique_ptr<replication_context> context) {
    const std::scoped_lock lock{contexts_mutex};
    free_contexts.push_back(std::move(context));
  }

  /// Drops the engines, factories and (through them) any graph reference
  /// as soon as the run's last shard completes, so a list of runs that
  /// each carry O(N) state — e.g. a topology.seed sweep over 10^6-vertex
  /// graphs — peaks at the *in-flight* runs, not the whole list.  Only the
  /// shard probes (needed for the merge) survive.
  void release_run_state() {
    free_contexts.clear();
    request = {};
  }

  /// The fixed-order fold of the shard accumulators.
  probe_list merge_shards() {
    probe_list merged = std::move(shard_probes[0]);
    for (std::size_t s = 1; s < shard_probes.size(); ++s) {
      for (std::size_t i = 0; i < merged.size(); ++i) merged[i]->merge(*shard_probes[s][i]);
    }
    return merged;
  }
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t run_points(std::vector<run_request> runs, const run_config& config,
                       const run_sink& on_point, const std::atomic<bool>* cancel) {
  check_run_config(config);
  const auto replications = static_cast<std::size_t>(config.replications);
  const shard_layout layout = reduce_layout(replications);

  // Flatten the runs into (run, shard) work items.  Every shard gets its
  // accumulator clones (the merge walks all of them), but only shards with
  // a non-empty replication range become work items — an empty shard must
  // not borrow (and possibly construct) an engine.
  std::vector<run_state> states(runs.size());
  std::vector<std::pair<std::size_t, std::size_t>> items;  // (run, shard)
  for (std::size_t r = 0; r < runs.size(); ++r) {
    run_state& state = states[r];
    state.request = std::move(runs[r]);
    state.shard_probes.resize(layout.shard_count);
    std::size_t live_shards = 0;
    for (std::size_t s = 0; s < layout.shard_count; ++s) {
      for (const auto& prototype : state.request.prototypes) {
        state.shard_probes[s].push_back(prototype->clone());
      }
      if (s * layout.chunk < replications) {
        items.emplace_back(r, s);
        ++live_shards;
      }
    }
    state.shards_left.store(live_shards, std::memory_order_relaxed);
  }

  std::mutex deliver_mutex;  // serializes on_point across finishing workers
  std::size_t delivered = 0;

  parallel_tasks(
      items.size(),
      [&](std::size_t item) {
        const auto [r, s] = items[item];
        run_state& state = states[r];
        if (cancel == nullptr || !cancel->load(std::memory_order_acquire)) {
          std::int64_t unset = 0;
          state.start_ns.compare_exchange_strong(unset, now_ns(), std::memory_order_relaxed);
          const std::size_t lo = s * layout.chunk;
          const std::size_t hi = std::min(replications, lo + layout.chunk);
          auto context = state.borrow_context();
          for (std::size_t replication = lo; replication < hi; ++replication) {
            context->run(config, replication, state.shard_probes[s]);
          }
          state.return_context(std::move(context));
        } else {
          // A skipped shard poisons the run: its accumulators are empty,
          // so a merge would misreport a partial run as the real result.
          state.skipped.store(true, std::memory_order_release);
        }
        // Last shard of the run: every other shard has returned its context
        // and decremented, so free the run's engines now, then merge and
        // deliver unless a sibling shard was cancelled.
        if (state.shards_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          const std::int64_t end = now_ns();
          state.release_run_state();
          if (!state.skipped.load(std::memory_order_acquire)) {
            const std::int64_t start = state.start_ns.load(std::memory_order_relaxed);
            probe_list merged = state.merge_shards();
            const std::lock_guard<std::mutex> lock{deliver_mutex};
            ++delivered;
            on_point(r, std::move(merged), static_cast<double>(end - start) * 1e-9);
          }
        }
      },
      config.threads);

  return delivered;
}

probe_list run_with_probes(const engine_factory& make_engine, const env_factory& make_env,
                           const run_config& config,
                           std::span<const probe* const> prototypes) {
  std::vector<run_request> runs(1);
  runs[0].make_engine = make_engine;
  runs[0].make_env = make_env;
  for (const probe* prototype : prototypes) runs[0].prototypes.push_back(prototype->clone());
  probe_list result;
  run_points(std::move(runs), config,
             [&result](std::size_t, probe_list&& merged, double) { result = std::move(merged); });
  return result;
}

engine_factory make_infinite_engine_factory(const dynamics_params& params,
                                            std::span<const double> start) {
  return [params, start = std::vector<double>{start.begin(), start.end()}] {
    return std::make_unique<infinite_dynamics>(params, start);
  };
}

engine_factory make_finite_engine_factory(const dynamics_params& params,
                                          std::uint64_t num_agents) {
  return [params, num_agents] {
    return std::make_unique<aggregate_dynamics>(params, num_agents);
  };
}

}  // namespace sgl::core
