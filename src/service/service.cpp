#include "service/service.h"

#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "scenario/serialize.h"
#include "support/json.h"
#include "support/json_parse.h"

namespace sgl::service {
namespace {

/// Reads an optional array-of-strings field ("set", "sweep", "probes").
std::vector<std::string> string_list(const json_value& request, std::string_view key) {
  const json_value* field = request.find(key);
  if (field == nullptr) return {};
  if (!field->is_array()) {
    throw std::invalid_argument{"request field '" + std::string{key} +
                                "' must be an array of strings"};
  }
  std::vector<std::string> out;
  out.reserve(field->items.size());
  for (const json_value& item : field->items) {
    out.push_back(item.as_string(key));
  }
  return out;
}

}  // namespace

session::session(job_queue& queue, session_options options)
    : queue_{queue}, options_{std::move(options)} {}

session::~session() {
  if (peer_closed()) cancel_outstanding();
  finish();
}

bool session::peer_closed() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return peer_closed_;
}

bool session::emit(std::string_view line) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (peer_closed_) return false;
  if (!options_.write_line || !options_.write_line(line)) {
    peer_closed_ = true;
    return false;
  }
  return true;
}

void session::emit_error(std::string_view message) {
  std::ostringstream out;
  json_writer json{out, /*indent=*/0};
  json.begin_object();
  json.key("event").value("error");
  json.key("message").value(message);
  json.end_object();
  emit(out.str());
}

void session::cancel_outstanding() {
  std::vector<std::uint64_t> jobs;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    jobs = jobs_;
  }
  for (const std::uint64_t id : jobs) queue_.cancel(id);
}

void session::finish() {
  std::unique_lock<std::mutex> lock{mutex_};
  idle_.wait(lock, [this] { return outstanding_ == 0; });
}

void session::handle_line(std::string_view line) {
  // Trim the usual whitespace so a CRLF client works.
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
    line.remove_suffix(1);
  }
  while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
    line.remove_prefix(1);
  }
  if (line.empty()) return;

  try {
    const json_value request = parse_json(line);
    if (!request.is_object()) {
      throw std::invalid_argument{"request must be a JSON object"};
    }
    const json_value* op = request.find("op");
    if (op == nullptr) throw std::invalid_argument{"request has no 'op' field"};
    const std::string& name = op->as_string("op");
    if (name == "submit") {
      handle_submit(request);
    } else if (name == "status") {
      handle_status(request);
    } else if (name == "cancel") {
      handle_cancel(request);
    } else {
      throw std::invalid_argument{"unknown op '" + name +
                                  "' (known: submit, status, cancel)"};
    }
  } catch (const std::exception& e) {
    emit_error(e.what());
  }
}

void session::handle_submit(const json_value& request) {
  const json_value* spec_text = request.find("spec");
  if (spec_text == nullptr) {
    throw std::invalid_argument{"submit: missing 'spec' (canonical scenario text)"};
  }

  job_request job;
  job.base = scenario::parse_scenario(spec_text->as_string("spec"));
  for (const std::string& assignment : string_list(request, "set")) {
    scenario::apply_override(job.base, assignment);
  }

  std::vector<scenario::sweep_axis> axes;
  for (const std::string& axis : string_list(request, "sweep")) {
    axes.push_back(scenario::parse_sweep_axis(axis));
  }
  if (!axes.empty()) job.grid = scenario::expand_sweep(axes);

  if (const json_value* field = request.find("horizon")) {
    job.config.horizon = field->as_uint64("horizon");
  }
  if (const json_value* field = request.find("replications")) {
    job.config.replications = field->as_uint64("replications");
  }
  if (const json_value* field = request.find("seed")) {
    job.config.seed = field->as_uint64("seed");
  }
  job.probe_specs = string_list(request, "probes");
  if (const json_value* field = request.find("priority")) {
    const std::int64_t priority = field->as_int64("priority");
    if (priority < std::numeric_limits<int>::min() ||
        priority > std::numeric_limits<int>::max()) {
      throw std::invalid_argument{"submit: 'priority' must be in [" +
                                  std::to_string(std::numeric_limits<int>::min()) + ", " +
                                  std::to_string(std::numeric_limits<int>::max()) + "]"};
    }
    job.priority = static_cast<int>(priority);
  }
  job.timeout_seconds = options_.default_timeout_seconds;
  if (const json_value* field = request.find("timeout")) {
    job.timeout_seconds = field->as_double("timeout");
    if (!(job.timeout_seconds >= 0.0)) {
      throw std::invalid_argument{"submit: 'timeout' must be >= 0 seconds"};
    }
  }

  job_sinks sinks;
  sinks.on_point = [this](const job_point_event& event) {
    std::ostringstream out;
    json_writer json{out, /*indent=*/0};
    json.begin_object();
    json.key("event").value(event.cache_hit ? "cache_hit" : "point_done");
    json.key("job").value(event.job);
    json.key("point").value(static_cast<std::uint64_t>(event.index));
    if (!event.cache_hit) json.key("seconds").value(event.seconds);
    json.key("result").raw(*event.payload);
    json.end_object();
    const bool delivered = emit(out.str());
    if (!delivered) cancel_outstanding();
    if (!event.cache_hit && options_.on_point_computed) options_.on_point_computed();
  };
  sinks.on_done = [this](const job_done_event& event) {
    std::ostringstream out;
    json_writer json{out, /*indent=*/0};
    json.begin_object();
    json.key("event").value("job_done");
    json.key("job").value(event.job);
    json.key("status").value(job_state_name(event.state));
    if (!event.error.empty()) json.key("error").value(event.error);
    json.key("total").value(static_cast<std::uint64_t>(event.total));
    json.key("computed").value(static_cast<std::uint64_t>(event.computed));
    json.key("cached").value(static_cast<std::uint64_t>(event.cached));
    json.end_object();
    emit(out.str());
    const std::lock_guard<std::mutex> lock{mutex_};
    std::erase(jobs_, event.job);
    if (outstanding_ > 0) --outstanding_;
    // Notify under the lock: once finish() sees 0 it returns and ~session
    // destroys idle_, which must not happen while this call is still in it.
    idle_.notify_all();
  };

  // The acceptance callback runs after the id is assigned but before the
  // job can produce events, so job_accepted is always the first line a
  // client sees for its job — even when the whole job finishes faster
  // than submit() returns.  The digests are the submission's cache
  // identity; echoing them lets a client correlate results with its own
  // store scans.
  const auto on_accepted = [this](std::uint64_t id, std::span<const digest128> digests) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      jobs_.push_back(id);
    }
    std::ostringstream out;
    json_writer json{out, /*indent=*/0};
    json.begin_object();
    json.key("event").value("job_accepted");
    json.key("job").value(id);
    json.key("points").value(static_cast<std::uint64_t>(digests.size()));
    json.key("digests").begin_array();
    for (const digest128& digest : digests) json.value(digest.hex());
    json.end_array();
    json.end_object();
    emit(out.str());
  };

  // Count the job as outstanding before submit: its events may fire
  // before submit() even returns.
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    ++outstanding_;
  }
  try {
    queue_.submit(std::move(job), std::move(sinks), on_accepted);
  } catch (const queue_full_error& e) {
    // Backpressure, not an error event: the explicit reply tells the
    // client nothing was enqueued and a verbatim resubmission is safe
    // (and free, once the points exist — the digests dedupe it).
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      --outstanding_;
    }
    std::ostringstream out;
    json_writer json{out, /*indent=*/0};
    json.begin_object();
    json.key("event").value("job_rejected");
    json.key("reason").value("queue_full");
    json.key("limit").value(static_cast<std::uint64_t>(e.limit()));
    json.key("message").value(e.what());
    json.end_object();
    emit(out.str());
  } catch (...) {
    const std::lock_guard<std::mutex> lock{mutex_};
    --outstanding_;
    throw;
  }
}

void session::handle_status(const json_value& request) {
  const json_value* id = request.find("job");
  if (id == nullptr) throw std::invalid_argument{"status: missing 'job'"};
  const std::uint64_t job = id->as_uint64("job");
  const std::optional<job_status> status = queue_.status(job);
  if (!status) {
    throw std::invalid_argument{"status: unknown job " + std::to_string(job)};
  }
  std::ostringstream out;
  json_writer json{out, /*indent=*/0};
  json.begin_object();
  json.key("event").value("status");
  json.key("job").value(job);
  json.key("state").value(job_state_name(status->state));
  json.key("priority").value(static_cast<std::int64_t>(status->priority));
  json.key("total").value(static_cast<std::uint64_t>(status->total));
  json.key("computed").value(static_cast<std::uint64_t>(status->computed));
  json.key("cached").value(static_cast<std::uint64_t>(status->cached));
  json.end_object();
  emit(out.str());
}

void session::handle_cancel(const json_value& request) {
  const json_value* id = request.find("job");
  if (id == nullptr) throw std::invalid_argument{"cancel: missing 'job'"};
  const std::uint64_t job = id->as_uint64("job");
  const bool cancelled = queue_.cancel(job);
  std::ostringstream out;
  json_writer json{out, /*indent=*/0};
  json.begin_object();
  json.key("event").value("cancel_result");
  json.key("job").value(job);
  json.key("cancelled").value(cancelled);
  json.end_object();
  emit(out.str());
}

}  // namespace sgl::service
