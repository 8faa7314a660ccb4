#include "support/parallel.h"

#include <condition_variable>
#include <thread>
#include <vector>

namespace sgl {
namespace {

using detail::pool_job;

/// Claims and executes tasks of `job` until none remain.  On an exception
/// the first error is recorded and the claim cursor jumps past the end, so
/// no *further* tasks start (tasks already claimed by other participants
/// finish normally); the skipped tasks are retired from the unfinished
/// count by whoever performed the jump.
void execute_tasks(pool_job& job) noexcept {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.task_count) return;
    bool failed = false;
    try {
      job.invoke(job.ctx, i);
    } catch (...) {
      const std::scoped_lock lock{job.error_mutex};
      if (!job.error) job.error = std::current_exception();
      failed = true;
    }
    std::size_t done = 1;
    if (failed) {
      // Abort the remaining unclaimed tasks: [claimed, task_count) never
      // ran and never will, so retire them here in one subtraction.
      // A concurrent aborter sees `claimed == task_count` and retires 0.
      const std::size_t claimed =
          job.next.exchange(job.task_count, std::memory_order_relaxed);
      if (claimed < job.task_count) done += job.task_count - claimed;
    }
    if (job.unfinished.fetch_sub(done, std::memory_order_acq_rel) == done) {
      job.unfinished.notify_all();
    }
  }
}

/// The process-wide persistent pool.  Workers are spawned lazily on the
/// first job that allows helpers, and live until process exit (jthread stop
/// tokens); an idle pool costs nothing but parked threads.  The pending
/// queue is an intrusive list of stack-resident pool_jobs; a job leaves the
/// queue once its tasks are all claimed (its submitter may still be
/// executing the last ones).
class worker_pool {
 public:
  static worker_pool& instance() {
    static worker_pool pool;
    return pool;
  }

  void submit(pool_job& job) {
    {
      const std::scoped_lock lock{mutex_};
      if (!started_) start_workers();
      if (workers_.empty()) return;  // single-core: the caller runs it all
      job.queue_next = nullptr;
      (tail_ ? tail_->queue_next : head_) = &job;
      tail_ = &job;
    }
    cv_.notify_all();
  }

  /// Unlinks `job` if it is still queued.  Called by the submitter after
  /// the job completed; afterwards no worker can observe the job.
  void retire(pool_job& job) {
    const std::scoped_lock lock{mutex_};
    pool_job* prev = nullptr;
    for (pool_job* j = head_; j != nullptr; prev = j, j = j->queue_next) {
      if (j != &job) continue;
      (prev ? prev->queue_next : head_) = j->queue_next;
      if (tail_ == j) tail_ = prev;
      return;
    }
  }

  [[nodiscard]] bool has_workers() {
    const std::scoped_lock lock{mutex_};
    if (!started_) start_workers();
    return !workers_.empty();
  }

 private:
  worker_pool() = default;
  ~worker_pool() {
    {
      const std::scoped_lock lock{mutex_};
      for (auto& worker : workers_) worker.request_stop();
    }
    cv_.notify_all();
  }  // jthread destructors join

  void start_workers() {
    started_ = true;
    const unsigned helpers = default_thread_count() - 1;
    workers_.reserve(helpers);
    for (unsigned t = 0; t < helpers; ++t) {
      workers_.emplace_back([this](const std::stop_token& stop) { worker_loop(stop); });
    }
  }

  /// A queued job this worker may join: skips (and unlinks) exhausted jobs
  /// and skips jobs already at their participant cap.
  pool_job* pick_job() {
    pool_job* prev = nullptr;
    pool_job* j = head_;
    while (j != nullptr) {
      if (j->next.load(std::memory_order_relaxed) >= j->task_count) {
        pool_job* dead = j;
        j = j->queue_next;
        (prev ? prev->queue_next : head_) = j;
        if (tail_ == dead) tail_ = prev;
        continue;
      }
      if (j->helpers.load(std::memory_order_relaxed) < j->max_helpers) return j;
      prev = j;
      j = j->queue_next;
    }
    return nullptr;
  }

  void worker_loop(const std::stop_token& stop) {
    std::unique_lock lock{mutex_};
    for (;;) {
      pool_job* job = nullptr;
      cv_.wait(lock, [&] {
        if (stop.stop_requested()) return true;
        job = pick_job();
        return job != nullptr;
      });
      if (stop.stop_requested()) return;
      // Reserve a helper slot under the lock (pick_job saw spare capacity;
      // re-check because slots are released outside the lock).
      if (job->helpers.fetch_add(1, std::memory_order_relaxed) >= job->max_helpers) {
        job->helpers.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      lock.unlock();
      execute_tasks(*job);
      job->helpers.fetch_sub(1, std::memory_order_release);
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  pool_job* head_ = nullptr;
  pool_job* tail_ = nullptr;
  std::vector<std::jthread> workers_;
  bool started_ = false;
};

}  // namespace

unsigned default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1U : hw;
}

namespace detail {

void run_on_pool(pool_job& job) {
  const bool shared =
      job.max_helpers > 0 && job.task_count > 1 && worker_pool::instance().has_workers();
  if (shared) worker_pool::instance().submit(job);

  execute_tasks(job);  // the submitting thread always participates

  if (shared) {
    // Wait for helpers still running claimed tasks.  The atomic wait parks
    // the submitter only when a helper really holds work; in the common
    // case the submitter executed the final task and falls straight through.
    std::size_t left = job.unfinished.load(std::memory_order_acquire);
    while (left != 0) {
      job.unfinished.wait(left, std::memory_order_acquire);
      left = job.unfinished.load(std::memory_order_acquire);
    }
    worker_pool::instance().retire(job);
    // Helpers may still be between their last claim check and the helper
    // count decrement; they touch nothing but the counters after that, and
    // the job outlives this call only on the submitter's stack — spin the
    // few cycles until the count drains so the stack frame can die.
    while (job.helpers.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  }

  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace detail

}  // namespace sgl
