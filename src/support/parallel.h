#pragma once

/// \file parallel.h
/// Deterministic replication-level parallelism.  The experiment harnesses
/// run thousands of short Monte-Carlo replications and sweep points; each
/// replication derives its own RNG stream from (master seed, replication
/// index), and reductions run over a *fixed* shard decomposition merged in
/// shard order — so results are bit-identical regardless of thread count
/// or scheduling.  Parallelism only changes wall-clock time.
///
/// Execution model (see DESIGN.md "Harness execution model"): each
/// parallel_tasks call starts its own helper std::jthreads and joins them
/// before it returns.  A sweep is one call (core::run_points puts every
/// (point × shard) item into it), so a thread start costs tens of
/// microseconds against milliseconds of work.  The calling thread always
/// participates, so one participant starts no thread at all, and a nested
/// call simply starts its own helpers.
///
/// The callable is templated end to end: no type erasure, so the per-item
/// fold stays inlineable.

#include <cstddef>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace sgl {

/// Number of worker threads to use by default (hardware concurrency,
/// at least 1).
[[nodiscard]] unsigned default_thread_count() noexcept;

/// Executes fn(i) exactly once for every task index i in [0, task_count);
/// participants claim indices through one atomic cursor.  The caller plus
/// `min(threads, cores, task_count) - 1` helper threads participate
/// (threads 0 = all cores); a helper that cannot start leaves its share to
/// the others.  Tasks should be coarse (a chunk of work, not one item).
/// Rethrows the first exception; remaining unstarted tasks are skipped.
template <typename Fn>
void parallel_tasks(std::size_t task_count, Fn&& fn, unsigned threads = 0) {
  if (task_count == 0) return;
  const unsigned cores = default_thread_count();
  const std::size_t participants =
      std::min<std::size_t>({threads == 0 ? cores : threads, cores, task_count});
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto claim_loop = [&]() noexcept {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= task_count) return;
      try {
        fn(i);
      } catch (...) {
        const std::scoped_lock lock{error_mutex};
        if (!error) error = std::current_exception();
        next.store(task_count, std::memory_order_relaxed);  // no further task starts
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(participants - 1);
    try {
      while (helpers.size() + 1 < participants) helpers.emplace_back(claim_loop);
    } catch (const std::system_error&) {
      // No thread to spare: the participants already running share the rest.
    }
    claim_loop();  // the caller always participates
  }  // the helpers join here
  if (error) std::rethrow_exception(error);
}

/// The default shard count of reduce_layout — and therefore of every
/// deterministic reduction in the repo.  Part of the output contract:
/// changing it changes which replication folds into which accumulator.
inline constexpr std::size_t default_shard_count = 64;

/// The fixed decomposition of [0, count) into contiguous blocks that every
/// replication reduction folds over: `shard_count` blocks of `chunk`
/// indices (the last ones may be short or empty), each folded sequentially
/// and merged in block order.  A pure function of (count, shard_count) —
/// never of the thread count — so the merged result is bit-identical for
/// any number of threads.  core::run_points (core/experiment.h) shards
/// every run with it.
struct shard_layout {
  std::size_t shard_count = 1;
  std::size_t chunk = 0;
};
[[nodiscard]] constexpr shard_layout reduce_layout(
    std::size_t count, std::size_t shard_count = default_shard_count) noexcept {
  if (shard_count == 0) shard_count = 1;
  shard_count = std::min(shard_count, std::max<std::size_t>(count, 1));
  return {shard_count, (count + shard_count - 1) / shard_count};
}

}  // namespace sgl
