// Google-benchmark suite for the netsim/gossip protocol workload: how fast
// the discrete-event simulator drains a protocol round at different
// population scales and link models, and what a whole harness replication
// of a protocol scenario costs end to end.  Speed claims are A/B runs of
// two builds on one host, recorded in bench/PERF.md.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "core/probe.h"
#include "graph/graph.h"
#include "netsim/simulation.h"
#include "protocol/protocol_engine.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "support/rng.h"

namespace {

using namespace sgl;

protocol::engine_config bench_config(std::size_t m, double drop, double jitter) {
  protocol::engine_config config;
  config.dynamics = core::theorem_params(m, 0.65);
  config.protocol.drop_probability = drop;
  config.protocol.jitter_mean = jitter;
  return config;
}

/// Rounds/sec of a bare engine on the given topology (nullptr = fully
/// mixed); counters report the event and message throughput netsim
/// sustained.
void protocol_rounds(benchmark::State& state, const protocol::engine_config& config,
                     std::size_t num_nodes,
                     std::shared_ptr<const graph::graph> topology) {
  protocol::protocol_engine engine{config, num_nodes, std::move(topology)};
  rng gen{42};
  rng reward_gen{43};
  std::vector<std::uint8_t> rewards(config.dynamics.num_options);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    for (auto& r : rewards) r = reward_gen.next_bernoulli(0.6) ? 1 : 0;
    engine.step(rewards, gen);
    ++rounds;
    benchmark::DoNotOptimize(engine.popularity().data());
  }
  const core::net_metrics net = engine.sample_net();
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds * num_nodes));
  state.counters["rounds_per_second"] =
      benchmark::Counter(static_cast<double>(rounds), benchmark::Counter::kIsRate);
  state.counters["messages_per_second"] = benchmark::Counter(
      static_cast<double>(net.messages_sent), benchmark::Counter::kIsRate);
}

void BM_protocol_round_mixed(benchmark::State& state) {
  const auto num_nodes = static_cast<std::size_t>(state.range(0));
  protocol_rounds(state, bench_config(2, 0.0, 0.0), num_nodes, nullptr);
}
BENCHMARK(BM_protocol_round_mixed)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_protocol_round_torus(benchmark::State& state) {
  const auto num_nodes = static_cast<std::size_t>(state.range(0));
  const std::size_t side = num_nodes == 4096 ? 64 : 32;
  auto torus =
      std::make_shared<const graph::graph>(graph::graph::grid(side, side, /*wrap=*/true));
  protocol_rounds(state, bench_config(4, 0.0, 0.0), side * side, std::move(torus));
}
BENCHMARK(BM_protocol_round_torus)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

/// The service_mix protocol shape: exactly gossip_ring_300's engine
/// config (C_300, m = 2, beta = 0.65, jitter 0.02, default latency).
void BM_protocol_round_ring300(benchmark::State& state) {
  const scenario::scenario_spec spec = scenario::get_scenario("gossip_ring_300");
  protocol::engine_config config = bench_config(2, 0.0, spec.protocol.jitter_mean);
  config.dynamics = spec.params;
  auto ring = std::make_shared<const graph::graph>(graph::graph::ring(spec.num_agents));
  protocol_rounds(state, config, spec.num_agents, std::move(ring));
}
BENCHMARK(BM_protocol_round_ring300)->Unit(benchmark::kMicrosecond);

void BM_protocol_round_lossy_jittery(benchmark::State& state) {
  // Loss + jitter exercise the net RNG and the retry path.
  protocol_rounds(state, bench_config(2, 0.3, 0.1), 1024, nullptr);
}
BENCHMARK(BM_protocol_round_lossy_jittery)->Unit(benchmark::kMicrosecond);

/// The nemesis path: a partition window plus crash/restart waves scheduled
/// into the run.  Arg 0 = recording off, 1 = ring recorder attached.  The
/// arg-0 row must track BM_protocol_round_mixed/1024 (modulo the loss/
/// jitter config): an installed schedule costs a handful of extra queue
/// events, and the recorder hook is one nullable-pointer branch per site.
void BM_protocol_round_nemesis(benchmark::State& state) {
  protocol::engine_config config = bench_config(2, 0.1, 0.05);
  netsim::fault_action cut;
  cut.which = netsim::fault_action::kind::partition;
  cut.at = 10.0;
  cut.until = 30.0;
  for (netsim::node_id id = 0; id < 512; ++id) cut.targets.push_back(id);
  config.faults.actions.push_back(cut);
  netsim::fault_action wave;
  wave.which = netsim::fault_action::kind::crash_wave;
  wave.at = 40.0;
  wave.fraction = 0.2;
  config.faults.actions.push_back(wave);
  netsim::fault_action back;
  back.which = netsim::fault_action::kind::restart_wave;
  back.at = 60.0;
  config.faults.actions.push_back(back);
  if (state.range(0) != 0) {
    config.record_trace = true;
    config.trace_capacity = 4096;  // ring mode: bounded memory over the loop
  }
  protocol_rounds(state, config, 1024, nullptr);
}
BENCHMARK(BM_protocol_round_nemesis)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Replications/sec of a protocol scenario through the full probe harness.
/// Single-threaded: google-benchmark's cpu_time counts only the benchmark
/// thread, so worker threads would hide most of the work.
void BM_protocol_replication(benchmark::State& state) {
  const scenario::scenario_spec spec = scenario::get_scenario("gossip_lossy_sweep");
  core::run_config config;
  config.horizon = 50;
  config.replications = 4;
  config.seed = 99;
  config.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario::run_probes(spec, config));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * config.replications));
  state.counters["replications_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * config.replications),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_protocol_replication)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
