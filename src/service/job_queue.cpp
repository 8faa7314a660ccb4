#include "service/job_queue.h"

#include <chrono>
#include <exception>
#include <span>
#include <stdexcept>

#include "core/probe.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "service/payload.h"
#include "support/failpoint.h"

namespace sgl::service {

namespace {

/// Per-point digests of a submission, in grid order.  Validates every point
/// (apply_override + validate_spec + building its probes) on the way;
/// throws as they do.
std::vector<digest128> point_digests(const job_request& request) {
  core::check_run_config(request.config);
  const std::size_t points = request.grid.empty() ? 1 : request.grid.size();
  std::vector<digest128> digests;
  digests.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    scenario::scenario_spec spec = request.base;
    if (!request.grid.empty()) {
      for (const auto& [key, value] : request.grid[p]) {
        scenario::apply_override(spec, key, value);
      }
    }
    scenario::validate_spec(spec);
    (void)core::make_probes(scenario::resolved_probes(spec, request.probe_specs));
    digests.push_back(spec_digest(spec, request.config, request.probe_specs));
  }
  return digests;
}

}  // namespace

std::string_view job_state_name(job_state state) noexcept {
  switch (state) {
    case job_state::queued: return "queued";
    case job_state::running: return "running";
    case job_state::done: return "done";
    case job_state::cancelled: return "cancelled";
    case job_state::failed: return "failed";
  }
  return "unknown";
}

job_queue::job_queue(result_store& store, unsigned worker_threads, std::size_t max_queued)
    : store_{store}, worker_threads_{worker_threads}, max_queued_{max_queued} {
  dispatcher_ = std::thread{[this] { dispatch_loop(); }};
}

job_queue::~job_queue() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    shutdown_ = true;
    paused_ = false;
    for (auto& [id, job] : jobs_) {
      job->stop.store(true, std::memory_order_release);
      job->user_cancelled.store(true, std::memory_order_release);
    }
  }
  wake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::uint64_t job_queue::submit(
    job_request request, job_sinks sinks,
    const std::function<void(std::uint64_t, std::span<const digest128>)>& on_accepted) {
  request.config.threads = worker_threads_;  // capacity is the daemon's call

  // Validate (and digest) every point before touching the queue: a bad
  // request throws here, at the submitter, and leaves no trace.
  std::vector<digest128> digests = point_digests(request);

  auto job = std::make_shared<job_record>();
  job->priority = request.priority;
  job->total = digests.size();
  job->request = std::move(request);
  job->sinks = std::move(sinks);

  // Two-phase enqueue: register the job (so status() resolves the id),
  // run the acceptance callback, and only then make the job runnable.
  // Events always fire after on_accepted returns — without the split, a
  // sub-millisecond job could emit point_done before the acceptance line
  // was even written.
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (shutdown_) throw std::runtime_error{"job_queue: shutting down"};
    // Bound the *waiting* jobs.  Nothing has been registered yet, so
    // refusal leaves no trace — the client just retries later.
    if (max_queued_ != 0 && queued_ >= max_queued_) throw queue_full_error{max_queued_};
    id = next_id_++;
    job->id = id;
    jobs_.emplace(id, job);
    ++queued_;
  }
  // The digests stay local until the job turns runnable: a cancel() during
  // on_accepted releases the record, never the span on_accepted reads.
  if (on_accepted) on_accepted(id, digests);
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    // cancel() may have reached the job during on_accepted; pending_
    // holds only queued jobs, so a terminal one must not enter it.
    if (job->state == job_state::queued) {
      job->digests = std::move(digests);
      pending_.push_back(id);
    }
  }
  wake_.notify_all();
  return id;
}

std::optional<job_status> job_queue::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const job_record& job = *it->second;
  job_status out;
  out.state = job.state;
  out.priority = job.priority;
  out.total = job.total;
  out.computed = job.computed.load(std::memory_order_relaxed);
  out.cached = job.cached.load(std::memory_order_relaxed);
  return out;
}

bool job_queue::cancel(std::uint64_t id) {
  std::shared_ptr<job_record> to_finish;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    job_record& job = *it->second;
    switch (job.state) {
      case job_state::done:
      case job_state::cancelled:
      case job_state::failed:
        return false;  // already terminal
      case job_state::queued:
        // Never started: transition here so status() is immediately
        // truthful; the done event fires outside the lock below.
        job.state = job_state::cancelled;
        --queued_;
        job.user_cancelled.store(true, std::memory_order_release);
        job.stop.store(true, std::memory_order_release);
        std::erase(pending_, id);
        to_finish = it->second;
        break;
      case job_state::running:
        job.user_cancelled.store(true, std::memory_order_release);
        job.stop.store(true, std::memory_order_release);
        break;
    }
  }
  if (to_finish) {
    if (to_finish->sinks.on_done) {
      job_done_event event;
      event.job = to_finish->id;
      event.state = job_state::cancelled;
      event.total = to_finish->total;
      to_finish->sinks.on_done(event);
    }
    release(*to_finish);
    settled_.notify_all();
  }
  return true;
}

std::size_t job_queue::cancel_all() {
  std::vector<std::uint64_t> ids;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    ids.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) ids.push_back(id);
  }
  std::size_t cancelled = 0;
  for (const std::uint64_t id : ids) {
    if (cancel(id)) ++cancelled;
  }
  return cancelled;
}

void job_queue::pause() {
  const std::lock_guard<std::mutex> lock{mutex_};
  paused_ = true;
}

void job_queue::resume() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    paused_ = false;
  }
  wake_.notify_all();
}

void job_queue::drain() {
  resume();
  std::unique_lock<std::mutex> lock{mutex_};
  settled_.wait(lock, [this] { return !running_ && queued_ == 0; });
}

std::shared_ptr<job_queue::job_record> job_queue::take_next_locked() {
  // Highest priority wins; pending_ is submission order, so the first
  // match at the best priority is the FIFO choice.  Every pending id names
  // a queued job: cancel() erases the jobs it finishes, and submit() never
  // pushes one that is already terminal.
  std::size_t best = 0;
  for (std::size_t i = 1; i < pending_.size(); ++i) {
    if (jobs_.at(pending_[i])->priority > jobs_.at(pending_[best])->priority) best = i;
  }
  auto job = jobs_.at(pending_[best]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
  return job;
}

void job_queue::dispatch_loop() {
  for (;;) {
    std::shared_ptr<job_record> job;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      wake_.wait(lock, [this] { return shutdown_ || (!paused_ && !pending_.empty()); });
      if (shutdown_) return;
      job = take_next_locked();
      job->state = job_state::running;
      --queued_;
      running_ = true;
    }
    run_job(*job);
    finish_job(*job);
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      running_ = false;
    }
    settled_.notify_all();
  }
}

void job_queue::run_job(job_record& job) {
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  // A deadline past the clock's range saturates to "none": casting such a
  // timeout to clock::duration would overflow into a deadline in the past.
  // The second of slack covers the rounding of the double comparison.
  const std::chrono::duration<double> timeout{job.request.timeout_seconds};
  if (!(timeout.count() > 0.0) ||
      timeout >= clock::time_point::max() - start - std::chrono::seconds{1}) {
    run_job_points(job);
    return;
  }
  const clock::time_point deadline =
      start + std::chrono::duration_cast<clock::duration>(timeout);
  // Wall-clock watchdog: on expiry, raise the same stop flag cancel()
  // uses — the sweep scheduler checks it between work items, so every
  // point already completed stays persisted and the job finishes `failed`
  // with a timeout error instead of hanging a slot forever.
  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool finished = false;
  std::thread watchdog{[&] {
    std::unique_lock<std::mutex> lock{watchdog_mutex};
    if (watchdog_cv.wait_until(lock, deadline, [&] { return finished; })) return;
    {
      const std::lock_guard<std::mutex> error_lock{job.error_mutex};
      if (job.error.empty()) {
        job.error = "job timed out after " +
                    std::to_string(job.request.timeout_seconds) +
                    " s; completed points are persisted and a resubmission resumes from them";
      }
    }
    job.stop.store(true, std::memory_order_release);
  }};
  run_job_points(job);
  {
    const std::lock_guard<std::mutex> lock{watchdog_mutex};
    finished = true;
  }
  watchdog_cv.notify_all();
  watchdog.join();
}

void job_queue::run_job_points(job_record& job) {
  const std::size_t points = job.total;
  const core::run_config& config = job.request.config;
  const std::span<const std::string> probe_specs{job.request.probe_specs};

  // Pass 1 — serve everything the store already has.  Hits are emitted in
  // grid order before any computation starts, so a resubmission of a
  // finished sweep streams its whole result without starting a thread.
  std::vector<std::size_t> missing;
  for (std::size_t p = 0; p < points; ++p) {
    if (job.stop.load(std::memory_order_acquire)) return;
    if (std::optional<std::string> payload = store_.get(job.digests[p])) {
      job.cached.fetch_add(1, std::memory_order_relaxed);
      if (job.sinks.on_point) {
        job_point_event event;
        event.job = job.id;
        event.index = p;
        event.cache_hit = true;
        event.payload = &*payload;
        job.sinks.on_point(event);
      }
    } else {
      missing.push_back(p);
    }
  }
  if (missing.empty() || job.stop.load(std::memory_order_acquire)) return;

  // Pass 2 — compute only the missing points, as one flattened sweep.
  // Persist-then-emit: a point's event is only ever sent after its object
  // is durably in the store, so every acknowledged point survives a kill.
  std::vector<std::vector<std::pair<std::string, std::string>>> sub_grid;
  if (!job.request.grid.empty()) {
    sub_grid.reserve(missing.size());
    for (const std::size_t p : missing) sub_grid.push_back(job.request.grid[p]);
  }

  scenario::sweep_stream_hooks hooks;
  hooks.cancel = &job.stop;
  hooks.on_point = [&](std::size_t sub_index, scenario::sweep_point_result&& result) {
    const std::size_t p = missing[sub_index];
    try {
      if (failpoints::check("queue.point")) {
        throw std::runtime_error{"injected fail point 'queue.point' at grid index " +
                                 std::to_string(p)};
      }
      const std::vector<core::probe_report> reports = core::collect_reports(result.probes);
      const std::string payload =
          build_point_payload(job.digests[p], result.spec, config, probe_specs, reports);
      store_.put(job.digests[p], payload);
      job.computed.fetch_add(1, std::memory_order_relaxed);
      if (job.sinks.on_point) {
        job_point_event event;
        event.job = job.id;
        event.index = p;
        event.seconds = result.seconds;
        event.payload = &payload;
        job.sinks.on_point(event);
      }
    } catch (const std::exception& e) {
      // Most likely store_.put I/O failure.  Record the first error and
      // stop scheduling — a service that kept emitting unpersisted points
      // would violate the resume contract.
      {
        const std::lock_guard<std::mutex> lock{job.error_mutex};
        if (job.error.empty()) job.error = e.what();
      }
      job.stop.store(true, std::memory_order_release);
    }
  };

  try {
    run_sweep_streaming(job.request.base, job.request.grid.empty()
                                              ? std::span<const std::vector<
                                                    std::pair<std::string, std::string>>>{}
                                              : std::span{sub_grid},
                        config, probe_specs, hooks);
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock{job.error_mutex};
    if (job.error.empty()) job.error = e.what();
  }
}

void job_queue::finish_job(job_record& job) {
  job_done_event event;
  event.job = job.id;
  event.total = job.total;
  event.computed = job.computed.load(std::memory_order_relaxed);
  event.cached = job.cached.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock{job.error_mutex};
    event.error = job.error;
  }
  if (!event.error.empty()) {
    event.state = job_state::failed;
  } else if (job.user_cancelled.load(std::memory_order_acquire)) {
    event.state = job_state::cancelled;
  } else {
    event.state = job_state::done;
  }
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    job.state = event.state;
  }
  if (job.sinks.on_done) job.sinks.on_done(event);
  release(job);
}

/// The sinks may capture a session that must not live as long as the
/// queue.  Called on the one thread that finished the job, after on_done
/// returned, so nothing else reads these fields any more.
void job_queue::release(job_record& job) {
  job.request = {};
  job.sinks = {};
  job.digests = {};
  job.error = {};
}

}  // namespace sgl::service
