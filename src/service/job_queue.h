#pragma once

/// \file job_queue.h
/// sociolearnd's job queue: submitted scenarios/sweeps decomposed into the
/// flattened (point × shard) schedule, with priorities, cancellation, and
/// the content-addressed result cache in front of every point.
///
/// A job is one sweep (a single scenario is a one-point sweep).  submit()
/// validates every point and computes its digest up front — a bad spec
/// fails the submission, never a running job.  A dispatcher thread runs
/// jobs one at a time, highest priority first (FIFO within a priority);
/// each job's points are first checked against the result store (hits are
/// served without recomputation), and only the missing points enter the
/// sweep scheduler (scenario/sweep.h), which spreads their shards over
/// helper threads that live for that one job.  Completed points are
/// persisted *before* their event is delivered, so an acknowledged point
/// is always a cached point — that ordering is what makes kill-and-resume
/// exact.
///
/// Cancellation: cancel() takes effect between work items.  A queued job
/// goes straight to `cancelled`; a running job stops scheduling new shards
/// and keeps every point that still completed (persisted as usual), so a
/// cancelled sweep resubmitted later resumes from those points.
///
/// Overload robustness (DESIGN.md "Failure model and recovery
/// guarantees"): the queue can be bounded — submit() past the bound throws
/// queue_full_error, which the session layer turns into an explicit
/// `job_rejected` reply instead of letting memory grow without limit.  A
/// job may carry a wall-clock timeout; on expiry the job's stop flag is
/// raised (the same path cancel() uses), every point that already
/// completed stays persisted, and the job finishes `failed` with a timeout
/// error.  cancel_all() is the SIGTERM drain entry point.
///
/// Threading: sinks for one job are never invoked concurrently (cache
/// hits fire from the dispatcher before the sweep starts; computed points
/// fire from worker threads serialized by the sweep's emit mutex; job_done
/// fires from the dispatcher after the sweep returns), but *are* invoked
/// from different threads — sinks that share state with other jobs' sinks
/// must lock.  Sinks must not throw.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "scenario/scenario.h"
#include "service/digest.h"
#include "service/result_store.h"

namespace sgl::service {

enum class job_state { queued, running, done, cancelled, failed };

/// Stable lowercase name ("queued", "running", ...).
[[nodiscard]] std::string_view job_state_name(job_state state) noexcept;

/// submit() refused a job because the queue is at its bound.  Backpressure,
/// not failure: nothing was enqueued, and an identical resubmission later
/// is free of double-compute risk (the digests dedupe it).
class queue_full_error : public std::runtime_error {
 public:
  explicit queue_full_error(std::size_t limit)
      : std::runtime_error{"job queue full (limit " + std::to_string(limit) +
                           " queued jobs); retry later"},
        limit_{limit} {}
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }

 private:
  std::size_t limit_;
};

/// One submission: a base spec, a grid of per-point overrides (empty =
/// one point with no overrides, as in scenario/sweep.h), the run
/// configuration, the probe set, and a scheduling priority (higher runs
/// first; equal priorities run in submission order).
struct job_request {
  scenario::scenario_spec base;
  std::vector<std::vector<std::pair<std::string, std::string>>> grid;
  core::run_config config;
  std::vector<std::string> probe_specs;
  int priority = 0;
  /// Wall-clock budget in seconds; 0 = none, and so is a budget past
  /// steady_clock's range (~292 years).  Scheduling latency does not
  /// count — the clock starts when the job starts running.  Not part of
  /// the point digests (it changes when results arrive, never what they
  /// are), so a timed-out sweep resubmitted with a bigger budget resumes
  /// from its persisted points.
  double timeout_seconds = 0.0;
};

/// One point reaching its terminal "result available" state.  `payload`
/// borrows the canonical payload for the duration of the callback.
struct job_point_event {
  std::uint64_t job = 0;
  std::size_t index = 0;  ///< grid index (0 for a single scenario)
  bool cache_hit = false;
  double seconds = 0.0;  ///< point wall-clock; 0 for cache hits
  const std::string* payload = nullptr;
};

/// A job reaching a terminal state.
struct job_done_event {
  std::uint64_t job = 0;
  job_state state = job_state::done;  ///< done | cancelled | failed
  std::string error;                  ///< set when state == failed
  std::size_t total = 0;
  std::size_t computed = 0;
  std::size_t cached = 0;
};

/// Per-job event delivery (see the threading note above).
struct job_sinks {
  std::function<void(const job_point_event&)> on_point;
  std::function<void(const job_done_event&)> on_done;
};

/// A point-in-time view of one job.
struct job_status {
  job_state state = job_state::queued;
  int priority = 0;
  std::size_t total = 0;
  std::size_t computed = 0;
  std::size_t cached = 0;
};

class job_queue {
 public:
  /// `store` must outlive the queue.  `worker_threads` is forced onto
  /// every job's run_config (0 = hardware concurrency): thread count is
  /// semantically inert (bit-identical results either way), so it is the
  /// daemon's capacity decision, not the client's, and it is excluded
  /// from the digest.  `max_queued` bounds the number of jobs waiting to
  /// run (0 = unbounded); submit() past the bound throws queue_full_error.
  explicit job_queue(result_store& store, unsigned worker_threads = 0,
                     std::size_t max_queued = 0);

  /// Cancels whatever is queued or running and joins the dispatcher.
  ~job_queue();

  job_queue(const job_queue&) = delete;
  job_queue& operator=(const job_queue&) = delete;

  /// Validates every point (apply_override + validate_spec + digest) and
  /// enqueues the job.  Returns the job id.  Throws std::invalid_argument
  /// (as validate_spec / apply_override / spec_digest) without enqueuing
  /// anything on a bad request.
  ///
  /// `on_accepted`, when set, is invoked with the assigned id and the
  /// per-point digests (grid order, the keys the cache is read and written
  /// under) after the job is registered (status() works) but strictly
  /// before the job can run — an acceptance acknowledgement is guaranteed
  /// to precede every point and done event, no matter how fast the job is.
  /// It is called without queue locks held and may block (e.g. on a socket
  /// write), but must not call back into submit() for re-entrancy reasons.
  std::uint64_t submit(
      job_request request, job_sinks sinks,
      const std::function<void(std::uint64_t, std::span<const digest128>)>& on_accepted = {});

  /// The job's current status, or nullopt for an unknown id.
  [[nodiscard]] std::optional<job_status> status(std::uint64_t job) const;

  /// Requests cancellation.  Returns false for unknown ids and jobs
  /// already in a terminal state, true otherwise.
  bool cancel(std::uint64_t job);

  /// Cancels every queued and running job (the SIGTERM drain path).
  /// Returns the number of jobs that were not already terminal.  Follow
  /// with drain() to wait for the running job to stop and persist.
  std::size_t cancel_all();

  /// Stops the dispatcher from *starting* jobs (running jobs finish).
  /// For tests that need a deterministic queue to inspect or cancel.
  void pause();
  void resume();

  /// Blocks until every submitted job has reached a terminal state.
  /// Unpauses first — draining a paused queue would deadlock.
  void drain();

 private:
  /// A job's record stays in jobs_ for status() for the queue's lifetime;
  /// once its done event has been delivered, release() empties the
  /// request, sinks, digests and error, so only the fields status()
  /// reports keep their values.
  struct job_record {
    std::uint64_t id = 0;
    int priority = 0;
    std::size_t total = 0;                // grid points
    job_state state = job_state::queued;  // guarded by queue mutex
    std::atomic<std::size_t> computed{0};
    std::atomic<std::size_t> cached{0};
    job_request request;
    job_sinks sinks;
    std::vector<digest128> digests;  // one per grid point
    std::atomic<bool> stop{false};   // user cancel or internal failure
    std::atomic<bool> user_cancelled{false};
    std::mutex error_mutex;
    std::string error;  // first failure, guarded by error_mutex
  };

  void dispatch_loop();
  std::shared_ptr<job_record> take_next_locked();
  void run_job(job_record& job);
  void run_job_points(job_record& job);
  void finish_job(job_record& job);
  static void release(job_record& job);

  result_store& store_;
  unsigned worker_threads_ = 0;
  std::size_t max_queued_ = 0;  // 0 = unbounded

  mutable std::mutex mutex_;
  std::condition_variable wake_;      // dispatcher: work arrived / unpaused
  std::condition_variable settled_;   // drain(): a job reached terminal state
  std::map<std::uint64_t, std::shared_ptr<job_record>> jobs_;
  std::vector<std::uint64_t> pending_;  // queued jobs, in submission order
  std::size_t queued_ = 0;              // jobs in state queued
  std::uint64_t next_id_ = 1;
  bool paused_ = false;
  bool shutdown_ = false;
  bool running_ = false;  // a job is currently executing

  std::thread dispatcher_;
};

}  // namespace sgl::service
