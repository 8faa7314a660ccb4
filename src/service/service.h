#pragma once

/// \file service.h
/// The sociolearnd wire protocol: requests in, JSONL events out.
///
/// A `session` is one client conversation, independent of transport — the
/// daemon gives it a socket-backed write_line, `--once` mode a
/// stdout-backed one, and tests an in-memory one.  Requests arrive one
/// JSON object per line:
///
///   {"op":"submit", "spec": "<canonical scenario text>",
///    "set": ["key=value", ...], "sweep": ["key=v1,v2", ...],
///    "horizon": T, "replications": R, "seed": S,
///    "probes": ["regret", ...], "priority": 0, "timeout": seconds}
///   {"op":"status", "job": N}
///   {"op":"cancel", "job": N}
///
/// and events flow back as JSONL (one object per line, in this order for
/// a submission):
///
///   {"event":"job_accepted","job":N,"points":P,"digests":[...]}
///   {"event":"cache_hit","job":N,"point":i,"result":{...payload...}}   (0+)
///   {"event":"point_done","job":N,"point":i,"seconds":s,"result":{...}} (0+)
///   {"event":"job_done","job":N,"status":"done|cancelled|failed", ...}
///
/// plus {"event":"status",...}, {"event":"cancel_result",...} and
/// {"event":"error","message":...} replies.  A submit refused by a full
/// bounded queue gets {"event":"job_rejected","reason":"queue_full",
/// "limit":L,...} instead of job_accepted — explicit backpressure the
/// client retries with backoff (nothing was enqueued).  The `result`
/// object of a
/// cache_hit is byte-identical to the point_done `result` the original
/// computation produced — that is the store's contract, and the
/// service-smoke CI job asserts it over the real wire.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/job_queue.h"

namespace sgl {
struct json_value;  // support/json_parse.h
}

namespace sgl::service {

struct session_options {
  /// Writes one event line (the JSON object, no trailing newline — the
  /// session appends it).  Returns false once the peer is gone; the
  /// session then cancels this session's outstanding jobs and drops
  /// further events.  Called from session, dispatcher, and worker
  /// threads, but never concurrently (internal mutex).
  std::function<bool(std::string_view line)> write_line;

  /// Crash-test hook: invoked after each *computed* point's event has
  /// been written (never for cache hits).  The daemon's fail point
  /// `daemon.point_computed` uses it to die at a deterministic place so
  /// kill-and-resume is testable.
  std::function<void()> on_point_computed;

  /// Wall-clock budget applied to submissions that do not carry their own
  /// "timeout" field (0 = none).  The daemon's --job-timeout.
  double default_timeout_seconds = 0.0;
};

class session {
 public:
  session(job_queue& queue, session_options options);

  /// Finishes outstanding jobs (waits; cancels first if the peer is
  /// already gone, which stops them at the next work item).
  ~session();

  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Parses and executes one request line.  Malformed requests produce an
  /// "error" event, never an exception; blank lines are ignored.
  void handle_line(std::string_view line);

  /// Blocks until every job submitted through this session has reached a
  /// terminal state and its job_done event has been written.
  void finish();

  /// True once write_line reported the peer gone.
  [[nodiscard]] bool peer_closed() const;

 private:
  void handle_submit(const json_value& request);
  void handle_status(const json_value& request);
  void handle_cancel(const json_value& request);
  bool emit(std::string_view line);
  void emit_error(std::string_view message);
  void cancel_outstanding();

  job_queue& queue_;
  session_options options_;

  mutable std::mutex mutex_;  // write serialization + bookkeeping
  std::condition_variable idle_;
  std::vector<std::uint64_t> jobs_;  // submitted here, job_done not yet written
  std::size_t outstanding_ = 0;      // jobs whose job_done is not yet written
  bool peer_closed_ = false;
};

}  // namespace sgl::service
