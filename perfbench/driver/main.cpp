// perfbench_driver — one benchmark run of one workload.
//
//   perfbench_driver --workload mixed_sweep|ba_sweep|service_mix --seed N
//                    --seconds S --trace 0|1 [--size full|toy]
//                    --threads T --daemon PATH --cli PATH
//   perfbench_driver --workload mixed_sweep|ba_sweep --seed N [--size toy] --setup-probe 1
//
// The second form is the sweeps' set-up probe: this fresh process times
// itself from entering main() to the end of one set-up and prints the
// seconds on its `ready` line.
//
// Works in the current directory (stores, sockets, spans.jsonl).  Prints
// the host metadata line, human-readable detail, and as the last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 1
// when any output check failed, 2 on bad arguments.

#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "support/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;

bool parse_args(int argc, char** argv, options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opts.workload = value;
    else if (key == "--seed") opts.seed = std::stoull(value);
    else if (key == "--seconds") opts.seconds = std::stod(value);
    else if (key == "--trace") opts.trace = value == "1";
    else if (key == "--size") opts.toy = value == "toy";
    else if (key == "--threads") opts.threads = static_cast<unsigned>(std::stoul(value));
    else if (key == "--daemon") opts.daemon_path = value;
    else if (key == "--cli") opts.cli_path = value;
    else if (key == "--setup-probe") opts.setup_probe = value == "1";
    else return false;
  }
  return argc % 2 == 1 && !opts.workload.empty() && opts.threads >= 1;
}

void print_result(const run_result& result) {
  for (const auto& metric : result.metrics()) {
    std::printf("%-28s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::ostringstream out;
  sgl::json_writer json{out, /*indent=*/0};
  json.begin_object();
  json.key("correct").value(result.correct());
  json.key("attempted").value(result.attempted());
  json.key("failed").value(result.failed());
  json.key("metrics").begin_object();
  for (const auto& metric : result.metrics()) {
    json.key(metric.name).begin_object();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << out.str() << '\n' << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t entered_ns = now_ns();
  options opts;
  try {
    if (!parse_args(argc, argv, opts)) {
      std::fprintf(stderr, "usage: perfbench_driver --workload W --seed N --seconds S "
                           "--trace 0|1 [--size full|toy] --threads T --daemon PATH --cli PATH\n");
      return 2;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "perfbench_driver: malformed number in the arguments\n");
    return 2;
  }

  if (opts.setup_probe) {
    try {
      run_setup_probe(opts, entered_ns);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_driver: set-up probe: %s\n", e.what());
      return 1;
    }
  }
  std::printf("meta %s\n", host_metadata_json(opts).c_str());
  std::fflush(stdout);
  run_result result;
  try {
    if (opts.workload == "mixed_sweep") run_mixed_sweep(opts, result);
    else if (opts.workload == "ba_sweep") run_ba_sweep(opts, result);
    else if (opts.workload == "service_mix") run_service_mix(opts, result);
    else {
      std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n", opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  for (const std::string& failure : result.check_failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  print_result(result);
  return result.correct() && result.failed() == 0 ? 0 : 1;
}
