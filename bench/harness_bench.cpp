// Google-benchmark suite for the Monte-Carlo *harness* (PR 4): how many
// replications per second the runner sustains around the engines, and how
// fast a sweep grid drains through the flattened scheduler.  The engine
// step kernels themselves are covered by micro_kernels.cpp; everything
// here measures what wraps them — context reset, probe overhead,
// scheduling, and the topology cache.
//
// `bench-report` writes this suite to BENCH_PR6.json, checked in as a
// record of the perf trajectory.  The CI perf-smoke job runs the suite and
// uploads its JSON; it compares against no checked-in baseline, because
// absolute numbers from another machine flag noise as regressions.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"

namespace {

using namespace sgl;

core::run_config harness_config(std::uint64_t horizon, std::uint64_t replications) {
  core::run_config config;
  config.horizon = horizon;
  config.replications = replications;
  config.seed = 99;
  // Single-threaded on purpose: the CI perf gate compares this suite's
  // cpu_time against a checked-in baseline, and google-benchmark's
  // cpu_time counts only the benchmark thread — with threads=0 a
  // multi-core runner would hide most of the work (and any regression in
  // it) in helper threads the metric never sees.  Pinning one thread
  // makes baseline and measurement the same quantity on every machine;
  // scaling behaviour is the scheduler tests' concern, not this gate's.
  config.threads = 1;
  return config;
}

/// replications/sec through run_probes on a registry scenario.
void replication_throughput(benchmark::State& state, const std::string& name,
                            std::uint64_t horizon, std::uint64_t replications) {
  const scenario::scenario_spec spec = scenario::get_scenario(name);
  const core::run_config config = harness_config(horizon, replications);
  // Warm the topology cache outside the timed region:
  // several benchmarks here run a single long iteration, which would
  // otherwise charge all process cold-start costs to whichever variant
  // happens to run first and destabilize the CI regression gate.
  (void)scenario::run_probes(spec, harness_config(1, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario::run_probes(spec, config));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * replications));
  state.counters["replications_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * replications),
      benchmark::Counter::kIsRate);
}

void BM_harness_mixed_baseline(benchmark::State& state) {
  // The issue's headline: small-N fully mixed scenario at horizon 1e3.
  replication_throughput(state, "mixed_baseline", 1000, 20);
}
BENCHMARK(BM_harness_mixed_baseline)->Unit(benchmark::kMillisecond);

void BM_harness_network_ring900(benchmark::State& state) {
  // Small-N network mode: reset() spares the per-replication buffer
  // allocations and the committed-neighbour-view rebuild.
  replication_throughput(state, "ring", 200, 8);
}
BENCHMARK(BM_harness_network_ring900)->Unit(benchmark::kMillisecond);

void BM_harness_network_ring1e5_short(benchmark::State& state) {
  // Large-N, short-horizon network runs: the regime where the O(N)
  // per-replication reset is a large share of the stepping itself.
  replication_throughput(state, "network_ring_1e5", 10, 6);
}
BENCHMARK(BM_harness_network_ring1e5_short)->Unit(benchmark::kMillisecond);

/// Wall clock of a 16-point sweep through the flattened scheduler.
void sweep_wall_clock(benchmark::State& state, const std::string& name,
                      const std::string& axis, std::uint64_t horizon,
                      std::uint64_t replications, std::uint64_t agents_override) {
  scenario::scenario_spec base = scenario::get_scenario(name);
  if (agents_override != 0) base.num_agents = agents_override;
  const scenario::sweep_axis parsed = scenario::parse_sweep_axis(axis);
  const auto grid = scenario::expand_sweep(std::span{&parsed, 1});
  const core::run_config config = harness_config(horizon, replications);
  // Warm the topology cache (same reasoning as replication_throughput):
  // the steady cached-graph state is the stable object to gate CI on; the
  // cold-build win is recorded in bench/PERF.md instead.
  (void)scenario::run_probes(base, harness_config(1, 1));
  std::uint64_t points = 0;
  for (auto _ : state) {
    const auto results = scenario::run_sweep(base, grid, config);
    points += results.size();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(points));
}

void BM_sweep16_mixed_baseline(benchmark::State& state) {
  sweep_wall_clock(state, "mixed_baseline", "params.beta=0.56:0.71:0.01", 400, 60, 0);
}
BENCHMARK(BM_sweep16_mixed_baseline)->Unit(benchmark::kMillisecond);

void BM_sweep16_smallworld_1e5(benchmark::State& state) {
  // 16 beta values on a Watts-Strogatz graph at N=1e5: without the
  // topology cache every point rebuilds the random graph; with it the
  // sweep pays for one build.
  sweep_wall_clock(state, "small-world", "params.beta=0.56:0.71:0.01", 10, 4, 100000);
}
BENCHMARK(BM_sweep16_smallworld_1e5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
