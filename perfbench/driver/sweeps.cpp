// The two sweep workloads: the fully mixed `mixed_baseline` grid and the
// Barabasi-Albert 10^6 beta sweep, both through the in-process sweep
// scheduler (scenario/sweep.h).

#include <cstdio>
#include <stdexcept>

#include "layers.h"
#include "process.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace scn = sgl::scenario;

job_spec mixed_sweep_job(const options& opts) {
  input_stream inputs{opts.seed};
  const std::size_t betas = opts.toy ? 4 : 16;
  const std::string beta = beta_axis(inputs, betas, 0.55, 0.16 / static_cast<double>(betas));
  return make_job("mixed_baseline", {"engine=aggregate,agent_based", beta},
                  opts.toy ? 100 : 1000, opts.toy ? 8 : 200, run_seed(inputs));
}

job_spec ba_sweep_job(const options& opts) {
  input_stream inputs{opts.seed ^ 0xba};
  const std::size_t betas = opts.toy ? 2 : 8;
  const std::string beta = beta_axis(inputs, betas, 0.55, 0.16 / static_cast<double>(betas));
  job_spec job = make_job("network_ba_1e6", {beta}, opts.toy ? 5 : 10, 4, run_seed(inputs));
  if (opts.toy) job.base.num_agents = 20000;
  return job;
}

/// One set-up: every point overridden and validated, the topology built,
/// the first point's factories made and its first replication context
/// constructed — the work run_sweep does before the first replication can
/// start.  Returns the built graph (null when fully mixed).
std::shared_ptr<const sgl::graph::graph> set_up(const job_spec& job) {
  for (std::size_t p = 0; p < job.points(); ++p) {
    scn::scenario_spec spec = job.base;
    if (!job.grid.empty()) {
      for (const auto& [key, value] : job.grid[p]) scn::apply_override(spec, key, value);
    }
    scn::validate_spec(spec);
  }
  scn::scenario_spec first = job.base;
  if (!job.grid.empty()) {
    for (const auto& [key, value] : job.grid[0]) scn::apply_override(first, key, value);
  }
  if (first.topology.family != scn::topology_spec::family_kind::none) {
    first.prebuilt_graph = std::make_shared<const sgl::graph::graph>(
        scn::build_topology(first.topology, static_cast<std::size_t>(first.num_agents)));
  }
  const sgl::core::engine_factory make_engine = scn::make_engine(first);
  const sgl::core::env_factory make_env = scn::make_environment(first.environment);
  const sgl::core::replication_context context{make_engine, make_env, false};
  return first.prebuilt_graph;
}

/// Set-up samples from fresh processes: each spawns this driver in set-up
/// probe mode (run_setup_probe), which times itself from entering main()
/// to the end of its set-up — workload start until the first replication
/// is ready, cold — and prints that on its `ready` line.  `spawn_samples`
/// gets spawn → ready line, for the share that is process start.
void time_setup_probes(const options& opts, std::size_t count, std::vector<double>& samples,
                       std::vector<double>& spawn_samples) {
  for (std::size_t i = 0; i < count; ++i) {
    ready_process probe{{self_executable(), "--workload", opts.workload, "--seed",
                         std::to_string(opts.seed), "--size", opts.toy ? "toy" : "full",
                         "--setup-probe", "1"},
                        "setup-probe.log", "ready"};
    samples.push_back(std::stod(probe.ready_line().substr(probe.ready_line().find(' ') + 1)));
    spawn_samples.push_back(probe.ready_seconds());
    probe.stop(/*graceful=*/false);
  }
}

struct sweep_round {
  std::vector<scn::sweep_point_result> results;
  std::vector<double> point_latency_s;  ///< sweep start → each point delivered
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// One untraced pass of the grid through the sweep scheduler, timed from
/// outside.  The base carries the set-up's graph, so no round rebuilds it.
sweep_round run_round(const job_spec& job, const std::shared_ptr<const sgl::graph::graph>& graph,
                      unsigned threads) {
  scn::scenario_spec base = job.base;
  base.prebuilt_graph = graph;
  sgl::core::run_config config = job.config;
  config.threads = threads;

  sweep_round round;
  round.results.resize(job.points());
  scn::sweep_stream_hooks hooks;
  const double cpu_start = process_cpu_seconds();
  const std::int64_t start = now_ns();
  hooks.on_point = [&](std::size_t index, scn::sweep_point_result&& result) {
    round.point_latency_s.push_back(seconds_between(start, now_ns()));
    round.results[index] = std::move(result);
  };
  const std::size_t done = scn::run_sweep_streaming(base, job.grid, config, job.probe_specs, hooks);
  round.seconds = seconds_between(start, now_ns());
  round.cpu_seconds = process_cpu_seconds() - cpu_start;
  if (done != job.points()) throw std::runtime_error{"sweep completed only part of its grid"};
  return round;
}

/// Canonical payloads of a round, by digest.
payload_map round_payloads(const job_spec& job, const sweep_round& round, run_result& result) {
  payload_map payloads;
  for (const scn::sweep_point_result& point : round.results) {
    result.check(!point.probes.empty(), "sweep point without probe results");
    auto [digest, payload] = payload_of(point.spec, job, point.probes);
    result.check(payloads.emplace(std::move(digest), std::move(payload)).second,
                 "two sweep points share a digest");
  }
  return payloads;
}

void run_untraced(const options& opts, const job_spec& job, std::size_t probes_per_round,
                  run_result& result) {
  const std::shared_ptr<const sgl::graph::graph> graph = set_up(job);
  std::vector<double> setups;
  std::vector<double> spawn_setups;

  std::vector<double> rates;
  std::vector<double> cpu;
  std::vector<double> point_latency_ms;
  std::vector<double> job_latency_ms;
  payload_map first;
  const std::int64_t begin = now_ns();
  do {
    // Set-up samples are taken between rounds, so they see the same host
    // state as the rounds do.
    time_setup_probes(opts, probes_per_round, setups, spawn_setups);
    result.add_attempted(job.points());
    sweep_round round;
    try {
      round = run_round(job, graph, opts.threads);
    } catch (const std::exception& e) {
      result.add_failed(job.points());
      result.check(false, std::string{"sweep round failed: "} + e.what());
      break;
    }
    rates.push_back(static_cast<double>(job.points()) / round.seconds);
    cpu.push_back(round.cpu_seconds);
    for (const double s : round.point_latency_s) point_latency_ms.push_back(s * 1e3);
    // A grid point is the sweep's job: its time in flight, first shard
    // started to last shard done, as the scheduler reports it.
    for (const auto& point : round.results) job_latency_ms.push_back(point.seconds * 1e3);
    // Every round must reproduce the first one byte for byte.
    payload_map payloads = round_payloads(job, round, result);
    if (first.empty()) first = std::move(payloads);
    else result.check(payloads == first, "a sweep round's payloads differ from the first round's");
  } while (seconds_between(begin, now_ns()) < opts.seconds);

  std::printf("setup samples %zu, rounds %zu, point-latency samples %zu, job-latency samples "
              "%zu\nround points/s:",
              setups.size(), rates.size(), point_latency_ms.size(), job_latency_ms.size());
  for (const double rate : rates) std::printf(" %.4f", rate);
  std::printf("\nset-up s (main → ready): min %.6g p10 %.6g p50 %.6g p90 %.6g\n",
              quantile(setups, 0.0), quantile(setups, 0.1), quantile(setups, 0.5),
              quantile(setups, 0.9));
  std::printf("spawn → ready s: p50 %.6g (set-up is %.1f%% of it)\n", median(spawn_setups),
              100.0 * median(setups) / median(spawn_setups));
  result.metric("setup_s", median(setups), "s");
  result.metric("points_per_s", median(rates), "1/s");
  result.metric("cpu_s", median(cpu), "s");
  result.metric("peak_rss_mb", process_peak_rss_mb(), "MiB");
  result.metric("point_latency_p50_ms", quantile(point_latency_ms, 0.5), "ms");
  result.metric("point_latency_p99_ms", quantile(point_latency_ms, 0.99), "ms");
  result.metric("job_latency_p50_ms", quantile(job_latency_ms, 0.5), "ms");
  result.metric("job_latency_p90_ms", quantile(job_latency_ms, 0.9), "ms");
}

void run_traced(const options& opts, const job_spec& job, run_result& result) {
  // The untraced reference: one set-up and one scheduler round.
  std::shared_ptr<const sgl::graph::graph> graph = set_up(job);
  const sweep_round round = run_round(job, graph, opts.threads);
  graph.reset();
  result.add_attempted(job.points());
  const payload_map reference = round_payloads(job, round, result);
  double point_seconds = 0.0;
  for (const auto& point : round.results) point_seconds += point.seconds;
  run_traced_layers({&job}, reference, point_seconds / round.seconds, /*designed_hits=*/0,
                    opts.threads, result);
}

}  // namespace

std::string beta_axis(input_stream& inputs, std::size_t count, double low, double slot) {
  std::string axis = "params.beta=";
  for (std::size_t i = 0; i < count; ++i) {
    const double beta = low + slot * (static_cast<double>(i) + 0.1 * inputs.uniform());
    char text[32];
    std::snprintf(text, sizeof text, "%.5f", beta);
    if (i > 0) axis += ',';
    axis += text;
  }
  return axis;
}

std::uint64_t run_seed(input_stream& inputs) { return inputs.next() >> 12; }

void run_mixed_sweep(const options& opts, run_result& result) {
  const job_spec job = mixed_sweep_job(opts);
  if (opts.trace) run_traced(opts, job, result);
  else run_untraced(opts, job, /*probes_per_round=*/8, result);
}

void run_ba_sweep(const options& opts, run_result& result) {
  const job_spec job = ba_sweep_job(opts);
  if (opts.trace) run_traced(opts, job, result);
  else run_untraced(opts, job, /*probes_per_round=*/1, result);
}

void run_setup_probe(const options& opts, std::int64_t entered_ns) {
  const job_spec job = opts.workload == "ba_sweep" ? ba_sweep_job(opts) : mixed_sweep_job(opts);
  const auto graph = set_up(job);
  std::printf("ready %.9f\n", seconds_between(entered_ns, now_ns()));
  std::fflush(stdout);
}

}  // namespace perfbench
