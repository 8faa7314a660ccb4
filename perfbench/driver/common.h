#pragma once

/// \file common.h
/// Shared plumbing of the perfbench driver: command-line options, the run
/// result every workload fills in, robust statistics, process resource
/// usage, host metadata, and the in-memory span tracer the traced runs use.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-loop budget (untraced runs)
  bool trace = false;
  bool toy = false;       ///< smoke-test sizes
  bool setup_probe = false;  ///< time one set-up in this fresh process, then exit
  unsigned threads = 1;   ///< worker threads handed to the program (nproc)
  std::string daemon_path;  ///< sociolearnd binary
  std::string cli_path;     ///< sociolearn_cli binary
};

/// What one run reports: the output checks, the operation counts, and the
/// metrics printed on the last stdout line.
class run_result {
 public:
  struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }
  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool correct() const { return check_failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }
  [[nodiscard]] const std::vector<struct metric>& metrics() const { return metrics_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> check_failures_;
  std::vector<struct metric> metrics_;
};

/// Median (mean of the middle pair for even counts); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// Linear-interpolation quantile, q in [0, 1]; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// User + system CPU seconds of this process (all threads) so far.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double process_peak_rss_mb();

/// User + system CPU seconds of another live process (/proc/<pid>/stat).
[[nodiscard]] double pid_cpu_seconds(int pid);

/// Peak resident set of another live process (/proc/<pid>/status VmHWM), MiB.
[[nodiscard]] double pid_peak_rss_mb(int pid);

/// Host facts printed with every result, so that comparisons across hosts
/// or kernels show as such: resolved step-kernel ISA, core count,
/// last-level cache size, the working directory's filesystem, build type.
[[nodiscard]] std::string host_metadata_json(const options& opts);

/// A deterministic seeded stream for workload generation (splitmix64).
class input_stream {
 public:
  explicit input_stream(std::uint64_t seed) : state_{seed ^ 0x5eedbe9c4c8f1a3dULL} {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_;
};

// --- tracing ---------------------------------------------------------------

/// The layers a traced run attributes time to.  Each is a span around one
/// public call (or one group of them) made from the driver.
enum class layer : std::uint8_t {
  pass,                   ///< root of one traced pass
  point,                  ///< one grid point end to end
  graph_build,            ///< scenario::build_topology
  prepare,                ///< apply_override + validate_spec + factories
  context_build,          ///< engine/environment construction
  reset,                  ///< engine/environment reset between replications
  replication,            ///< one replication (Q copy + the leaves below)
  env_sample,             ///< reward_model::sample
  engine_step,            ///< dynamics_engine::step (simulation engines)
  protocol_round,         ///< dynamics_engine::step of the protocol engine
  probe_on_step,          ///< probe::on_step over the installed probes
  probe_edges,            ///< probe::begin_replication + end_replication
  probe_merge,            ///< probe::merge in fixed shard order
  bookkeeping,            ///< the tracer's own choices() diff for counts
  digest,                 ///< service::spec_digest
  payload_encode,         ///< collect_reports + build_point_payload
  store_get,              ///< result_store::get
  store_put,              ///< result_store::put (write + fsync + rename)
  replay,                 ///< root of the session replay
  submit,                 ///< session::handle_line of one submit
  socket_write,           ///< write_all of one event line
  count_
};
inline constexpr std::size_t k_layer_count = static_cast<std::size_t>(layer::count_);

[[nodiscard]] const char* layer_name(layer which);

/// One recorded span.  Per-step leaves are recorded aggregated: one record
/// per (parent, layer) holding the call count and the summed busy time,
/// with start/end the first call's start and the last call's end.
struct span_record {
  layer name = layer::pass;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t count = 1;
};

/// Sums of one layer over a trace.
struct layer_total {
  double self_s = 0.0;  ///< busy minus time covered by child spans
  std::uint64_t count = 0;
};

/// Call-count + busy-time accumulator for a per-step leaf.
struct leaf_accumulator {
  std::int64_t first_ns = -1;
  std::int64_t last_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t count = 0;

  void add(std::int64_t start, std::int64_t end) {
    if (first_ns < 0) first_ns = start;
    last_ns = end;
    busy_ns += end - start;
    ++count;
  }
};

/// Spans kept in memory, written out when the run ends.  Single-threaded:
/// every begin/end/leaf call comes from the driver's main thread.  When
/// constructed off, every call is a no-op and no clock is read.
class tracer {
 public:
  explicit tracer(bool on) : on_{on} {}

  [[nodiscard]] bool on() const { return on_; }

  /// Opens a span under the innermost open span; returns its index (-1 off).
  std::int32_t begin(layer name);
  void end(std::int32_t index);

  /// Appends an aggregated leaf under the innermost open span.
  void add_leaf(layer name, const leaf_accumulator& leaf);

  [[nodiscard]] const std::vector<span_record>& spans() const { return spans_; }
  [[nodiscard]] std::array<layer_total, k_layer_count> totals() const;

  /// One JSON object per span: name, parent, start/end (ns from the first
  /// span), busy ns, count.
  void write_jsonl(const std::string& path) const;

 private:
  bool on_;
  std::vector<span_record> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class scoped_span {
 public:
  scoped_span(tracer& trace, layer name) : trace_{trace}, index_{trace.begin(name)} {}
  ~scoped_span() { trace_.end(index_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer& trace_;
  std::int32_t index_;
};

/// Prints the per-layer table (self time, count, share of the root spans'
/// busy time) to stdout.
void print_layer_table(const tracer& trace);

}  // namespace perfbench
