#pragma once

/// \file parallel.h
/// Deterministic replication-level parallelism over a persistent worker
/// pool.  The experiment harnesses run thousands of short Monte-Carlo
/// replications and sweep points; each replication derives its own RNG
/// stream from (master seed, replication index), and reductions run over a
/// *fixed* shard decomposition merged in shard order — so results are
/// bit-identical regardless of thread count or scheduling.  Parallelism
/// only changes wall-clock time.
///
/// Execution model (new in PR 4 — see DESIGN.md "Harness execution model"):
/// instead of spawning and joining std::jthreads on every call, both
/// entry points below submit a *job* (a fixed list of tasks claimed via one
/// atomic counter) to a lazily started process-wide pool of
/// `default_thread_count() - 1` workers.  The submitting thread always
/// participates, so a machine with one hardware thread never pays any
/// queueing at all (jobs run inline), and nested submissions — an engine
/// fanning out inside a replication that is itself a pool task — cannot
/// deadlock: the inner caller helps drain its own job while it waits.
/// The `threads` argument caps the number of *participants* (caller +
/// helpers) per job, preserving the old oversubscription semantics.
///
/// The callables are templated end to end: the only type erasure is one
/// indirect call per *task* (a whole chunk / shard), never per item, so the
/// per-item fold stays inlineable.

#include <cstddef>
#include <utility>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <type_traits>

namespace sgl {

/// Number of worker threads to use by default (hardware concurrency,
/// at least 1).
[[nodiscard]] unsigned default_thread_count() noexcept;

namespace detail {

/// One submission to the worker pool: `task_count` tasks claimed via a
/// shared atomic cursor and executed by at most `max_helpers` pool workers
/// plus the submitting thread.  POD-ish by design; lives on the submitting
/// thread's stack for the duration of the call.
struct pool_job {
  void (*invoke)(void*, std::size_t) = nullptr;  ///< run task i on ctx
  void* ctx = nullptr;
  std::size_t task_count = 0;
  unsigned max_helpers = 0;  ///< pool workers allowed to join (caller always runs)

  std::atomic<std::size_t> next{0};        ///< next unclaimed task
  std::atomic<std::size_t> unfinished{0};  ///< tasks not yet executed/skipped
  std::atomic<unsigned> helpers{0};        ///< pool workers currently inside
  std::exception_ptr error;                ///< first failure (under error_mutex)
  std::mutex error_mutex;
  pool_job* queue_next = nullptr;  ///< intrusive pending-queue link
};

/// Runs the job to completion: enqueues it for the pool (when helpers are
/// allowed and the pool has workers), executes tasks on the calling thread,
/// waits for stragglers, and rethrows the first task exception.  After an
/// exception no further tasks start; tasks already running complete.
void run_on_pool(pool_job& job);

}  // namespace detail

/// Executes fn(i) exactly once for every task index i in [0, task_count),
/// dynamically distributed over the worker pool; at most `threads`
/// participants run concurrently (0 = hardware concurrency).  Tasks should
/// be coarse (a chunk of work, not one item).  Rethrows the first
/// exception; remaining unstarted tasks are skipped.
template <typename Fn>
void parallel_tasks(std::size_t task_count, Fn&& fn, unsigned threads = 0) {
  if (task_count == 0) return;
  if (threads == 0) threads = default_thread_count();
  using body = std::remove_reference_t<Fn>;
  detail::pool_job job;
  job.invoke = [](void* ctx, std::size_t i) { (*static_cast<body*>(ctx))(i); };
  job.ctx = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
  job.task_count = task_count;
  job.unfinished.store(task_count, std::memory_order_relaxed);
  const std::size_t cap = std::min<std::size_t>(threads, task_count);
  job.max_helpers = cap > 0 ? static_cast<unsigned>(cap - 1) : 0U;
  detail::run_on_pool(job);
}

/// Runs fn(i) for every i in [begin, end), statically partitioned into (at
/// most) `threads` contiguous chunks executed over the worker pool
/// (0 = auto).  Rethrows the first exception thrown by any invocation.
/// fn must be safe to call concurrently for distinct i.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn, unsigned threads = 0) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (threads == 0) threads = default_thread_count();
  const auto chunks = std::min<std::size_t>(threads, count);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunk = (count + chunks - 1) / chunks;
  parallel_tasks(
      chunks,
      [&](std::size_t c) {
        const std::size_t lo = begin + c * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      threads);
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
