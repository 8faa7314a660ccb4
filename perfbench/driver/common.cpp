#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include "core/step_kernel.h"
#include "support/json.h"

namespace perfbench {

void run_result::check(bool ok, const std::string& what) {
  if (ok) return;
  // Keep the first few verbatim; a systematic mismatch would otherwise
  // repeat once per point.
  if (check_failures_.size() < 20) check_failures_.push_back(what);
  else if (check_failures_.size() == 20) check_failures_.push_back("(further failures elided)");
}

void run_result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double pid_cpu_seconds(int pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/stat"};
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields{text.substr(close + 2)};
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) {
      stime = std::stod(field);
      break;
    }
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double pid_peak_rss_mb(int pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  return line;
}

/// The largest unified/data cache level of CPU 0, as "<level>:<size>".
std::string last_level_cache() {
  std::string best;
  int best_level = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first_line(dir + "/level");
    if (level.empty()) break;
    const std::string type = read_first_line(dir + "/type");
    if (type == "Instruction") continue;
    const int value = std::atoi(level.c_str());
    if (value >= best_level) {
      best_level = value;
      best = "L" + level + ":" + read_first_line(dir + "/size");
    }
  }
  return best.empty() ? "unknown" : best;
}

std::string filesystem_type(const char* path) {
  struct statfs info{};
  if (statfs(path, &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
  return hex;
}

}  // namespace

std::string host_metadata_json(const options& opts) {
  std::ostringstream out;
  sgl::json_writer json{out, /*indent=*/0};
  json.begin_object();
  json.key("workload").value(opts.workload);
  json.key("seed").value(opts.seed);
  json.key("trace").value(opts.trace);
  json.key("size").value(opts.toy ? "toy" : "full");
  json.key("step_kernel_isa").value(sgl::simd::isa_name(sgl::core::kernel::active_isa()));
  json.key("nproc").value(static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.key("worker_threads").value(static_cast<std::uint64_t>(opts.threads));
  json.key("llc").value(last_level_cache());
  json.key("workdir_fs").value(filesystem_type("."));
  json.key("driver_build_type").value(PERFBENCH_BUILD_TYPE);
  json.end_object();
  return std::move(out).str();
}

std::uint64_t input_stream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double input_stream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t input_stream::between(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

// --- tracing ---------------------------------------------------------------

const char* layer_name(layer which) {
  switch (which) {
    case layer::pass: return "pass";
    case layer::point: return "point";
    case layer::graph_build: return "graph.build";
    case layer::prepare: return "scenario.prepare";
    case layer::context_build: return "experiment.context_build";
    case layer::reset: return "experiment.reset";
    case layer::replication: return "replication";
    case layer::env_sample: return "env.sample";
    case layer::engine_step: return "engine.step";
    case layer::protocol_round: return "protocol.round";
    case layer::probe_on_step: return "probe.on_step";
    case layer::probe_edges: return "probe.begin_end";
    case layer::probe_merge: return "probe.merge";
    case layer::bookkeeping: return "trace.bookkeeping";
    case layer::digest: return "service.digest";
    case layer::payload_encode: return "service.payload_encode";
    case layer::store_get: return "service.store_get";
    case layer::store_put: return "service.store_put";
    case layer::replay: return "replay";
    case layer::submit: return "service.submit";
    case layer::socket_write: return "service.socket_write";
    case layer::count_: break;
  }
  return "?";
}

std::int32_t tracer::begin(layer name) {
  if (!on_) return -1;
  span_record record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_ns = now_ns();
  spans_.push_back(record);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void tracer::end(std::int32_t index) {
  if (index < 0) return;
  span_record& record = spans_[static_cast<std::size_t>(index)];
  record.end_ns = now_ns();
  record.busy_ns = record.end_ns - record.start_ns;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void tracer::add_leaf(layer name, const leaf_accumulator& leaf) {
  if (!on_ || leaf.count == 0) return;
  span_record record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_ns = leaf.first_ns;
  record.end_ns = leaf.last_ns;
  record.busy_ns = leaf.busy_ns;
  record.count = leaf.count;
  spans_.push_back(record);
}

std::array<layer_total, k_layer_count> tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const span_record& record : spans_) {
    if (record.parent >= 0) child_ns[static_cast<std::size_t>(record.parent)] += record.busy_ns;
  }
  std::array<layer_total, k_layer_count> totals{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    layer_total& total = totals[static_cast<std::size_t>(spans_[i].name)];
    total.self_s += static_cast<double>(spans_[i].busy_ns - child_ns[i]) * 1e-9;
    total.count += spans_[i].count;
  }
  return totals;
}

void tracer::write_jsonl(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write spans to " + path};
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const span_record& record : spans_) {
    out << "{\"name\":\"" << layer_name(record.name) << "\",\"parent\":" << record.parent
        << ",\"start_ns\":" << record.start_ns - origin
        << ",\"end_ns\":" << record.end_ns - origin << ",\"busy_ns\":" << record.busy_ns
        << ",\"count\":" << record.count << "}\n";
  }
}

void print_layer_table(const tracer& trace) {
  const auto totals = trace.totals();
  double root_s = 0.0;
  for (const span_record& record : trace.spans()) {
    if (record.parent < 0) root_s += static_cast<double>(record.busy_ns) * 1e-9;
  }
  std::printf("%-26s %12s %12s %7s\n", "layer", "self_s", "count", "share");
  for (std::size_t i = 0; i < k_layer_count; ++i) {
    const layer_total& total = totals[i];
    if (total.count == 0) continue;
    std::printf("%-26s %12.6f %12llu %6.2f%%\n", layer_name(static_cast<layer>(i)),
                total.self_s, static_cast<unsigned long long>(total.count),
                root_s > 0.0 ? 100.0 * total.self_s / root_s : 0.0);
  }
}

}  // namespace perfbench
