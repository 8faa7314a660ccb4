// Google-benchmark micro suite: throughput of the hot kernels behind the
// experiment harnesses.  The headline numbers are the per-step costs of the
// three dynamics engines — the aggregate engine's N-independence is what
// makes the Theorem 4.4 sweeps to N = 10^6 feasible.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/step_kernel.h"
#include "graph/graph.h"
#include "netsim/simulation.h"
#include "scenario/scenario.h"
#include "support/distributions.h"
#include "support/rng.h"

namespace {

using namespace sgl;

core::dynamics_params make_params(std::size_t m) {
  core::dynamics_params p;
  p.num_options = m;
  p.mu = 0.05;
  p.beta = 0.62;
  return p;
}

std::vector<std::uint8_t> random_rewards(std::size_t m, rng& gen) {
  std::vector<std::uint8_t> r(m);
  for (auto& x : r) x = gen.next_bernoulli(0.5) ? 1 : 0;
  return r;
}

void BM_rng_next_u64(benchmark::State& state) {
  rng gen{1};
  for (auto _ : state) benchmark::DoNotOptimize(gen.next_u64());
}
BENCHMARK(BM_rng_next_u64);

void BM_binomial_sample(benchmark::State& state) {
  rng gen{2};
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(sample_binomial(gen, n, 0.37));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_binomial_sample)->Arg(16)->Arg(1024)->Arg(1 << 20);

void BM_binomial_table(benchmark::State& state) {
  // p = 0.38 fixed, n uniform within ±arg 1 of arg 0.  Stage-2-like: ±8
  // around 20 (inversion) or 800 (BTRS), nearly all table hits; ±10^5
  // around 10^6 is the N = 10^6 case, nearly all misses.  arg 2 = 0 draws
  // through sample_binomial, 1 through a binomial_table — the same values
  // from the same stream.
  const auto center = static_cast<std::uint64_t>(state.range(0));
  const auto spread = static_cast<std::uint64_t>(state.range(1));
  const bool cached = state.range(2) != 0;
  rng n_gen{11};
  std::vector<std::uint64_t> ns(4096);
  for (auto& n : ns) n = center - spread + n_gen.next_below(2 * spread + 1);
  rng gen{12};
  binomial_table table{0.38};
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t n = ns[i++ & 4095];
    benchmark::DoNotOptimize(cached ? table.sample(gen, n) : sample_binomial(gen, n, 0.38));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_binomial_table)
    ->Args({20, 8, 0})->Args({20, 8, 1})
    ->Args({800, 8, 0})->Args({800, 8, 1})
    ->Args({1000000, 100000, 0})->Args({1000000, 100000, 1});

void BM_multinomial_sample(benchmark::State& state) {
  rng gen{3};
  const auto m = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(m, 1.0);
  std::vector<std::uint64_t> out(m);
  for (auto _ : state) {
    sample_multinomial(gen, 1000000, weights, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_multinomial_sample)->Arg(2)->Arg(10)->Arg(100);

void BM_alias_sampler_draw(benchmark::State& state) {
  rng gen{4};
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t j = 0; j < weights.size(); ++j) {
    weights[j] = static_cast<double>(j + 1);
  }
  const discrete_sampler sampler{weights};
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(gen));
}
BENCHMARK(BM_alias_sampler_draw)->Arg(10)->Arg(1000);

void BM_infinite_step(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  core::infinite_dynamics dyn{make_params(m)};
  rng gen{5};
  const auto rewards = random_rewards(m, gen);
  for (auto _ : state) dyn.step(rewards);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_infinite_step)->Arg(2)->Arg(10)->Arg(100);

void BM_aggregate_step(benchmark::State& state) {
  // O(m) per step — note the independence from N.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  core::aggregate_dynamics dyn{make_params(10), n};
  rng gen{6};
  rng reward_gen{7};
  const auto rewards = random_rewards(10, reward_gen);
  for (auto _ : state) dyn.step(rewards, gen);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_aggregate_step)->Arg(1000)->Arg(100000)->Arg(10000000);

void BM_agent_based_step_heterogeneous(benchmark::State& state) {
  // Per-agent rules force the O(N) loop — the price of heterogeneity.
  const auto n = static_cast<std::size_t>(state.range(0));
  core::finite_dynamics dyn{make_params(10), n, nullptr,
                            std::vector<core::adoption_rule>(n, {0.35, 0.65})};
  rng gen{8};
  rng reward_gen{9};
  const auto rewards = random_rewards(10, reward_gen);
  for (auto _ : state) dyn.step(rewards, gen);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    static_cast<std::int64_t>(n)));
}
BENCHMARK(BM_agent_based_step_heterogeneous)->Arg(1000)->Arg(10000);

void BM_grouped_step(benchmark::State& state) {
  // Exact aggregate of a G-group rule mixture: O(G·m), independent of N.
  const auto groups = static_cast<std::size_t>(state.range(0));
  std::vector<core::rule_group> mixture(groups, {1000000, {0.35, 0.65}});
  core::aggregate_dynamics dyn{make_params(10), mixture};
  rng gen{8};
  rng reward_gen{9};
  const auto rewards = random_rewards(10, reward_gen);
  for (auto _ : state) dyn.step(rewards, gen);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_grouped_step)->Arg(2)->Arg(8);

// --- network-mode stepping ---------------------------------------------------
//
// The topology path of finite_dynamics (§6, open problem 1).  Engines are
// warmed past the low-commitment transient so the loop measures the steady
// state; graphs are built once and cached across benchmarks.  Two regimes:
//   * dense  — beta = 0.62, best option always good: ~55-60% of the group is
//     committed each step (the paper's converged regime);
//   * sparse — beta = 0.95 (alpha = 0.05), all signals bad: ~5% committed,
//     the regime where rejection sampling over uniform neighbour draws burns
//     its attempt budget;
//   * very_sparse — beta = 0.98 (alpha = 0.02): ~2% committed, the extreme
//     cautious-adopter tail.
// Items processed = agent-steps, so report ns/agent via items_per_second.

std::shared_ptr<const graph::graph> cached_topology(const std::string& kind,
                                                    std::size_t n) {
  static std::map<std::pair<std::string, std::size_t>,
                  std::shared_ptr<const graph::graph>>
      cache;
  const auto key = std::make_pair(kind, n);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
  scenario::topology_spec spec;
  using family = scenario::topology_spec::family_kind;
  if (kind == "ring") {
    spec.family = family::ring;
  } else if (kind == "torus") {
    spec.family = family::torus;
  } else if (kind == "smallworld") {
    spec.family = family::watts_strogatz;
    spec.degree = 5;
    spec.rewire_probability = 0.1;
  } else if (kind == "ba") {
    spec.family = family::barabasi_albert;
    spec.degree = 5;
  } else if (kind == "two_cliques") {
    spec.family = family::two_cliques;
    spec.bridges = 1;
  } else {
    throw std::invalid_argument{"unknown bench topology"};
  }
  return cache
      .emplace(key, std::make_shared<const graph::graph>(scenario::build_topology(spec, n)))
      .first->second;
}

void network_step_benchmark(benchmark::State& state, const std::string& kind,
                            double beta, std::vector<std::uint8_t> rewards) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::dynamics_params p;
  p.num_options = 2;
  p.mu = 0.05;
  p.beta = beta;
  core::finite_dynamics dyn{p, n, cached_topology(kind, n)};

  rng gen{8};
  for (int t = 0; t < 30; ++t) dyn.step(rewards, gen);  // past the transient

  for (auto _ : state) dyn.step(rewards, gen);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_network_step_ring(benchmark::State& state) {
  network_step_benchmark(state, "ring", 0.62, {1, 0});
}
BENCHMARK(BM_network_step_ring)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_network_step_torus(benchmark::State& state) {
  network_step_benchmark(state, "torus", 0.62, {1, 0});
}
BENCHMARK(BM_network_step_torus)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_network_step_smallworld(benchmark::State& state) {
  network_step_benchmark(state, "smallworld", 0.62, {1, 0});
}
BENCHMARK(BM_network_step_smallworld)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_network_step_ba(benchmark::State& state) {
  network_step_benchmark(state, "ba", 0.62, {1, 0});
}
BENCHMARK(BM_network_step_ba)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_network_step_two_cliques(benchmark::State& state) {
  network_step_benchmark(state, "two_cliques", 0.62, {1, 0});
}
BENCHMARK(BM_network_step_two_cliques)->Arg(2000)->Unit(benchmark::kMicrosecond);

void BM_network_step_ba_sparse(benchmark::State& state) {
  network_step_benchmark(state, "ba", 0.95, {0, 0});
}
BENCHMARK(BM_network_step_ba_sparse)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_network_step_ring_sparse(benchmark::State& state) {
  network_step_benchmark(state, "ring", 0.95, {0, 0});
}
BENCHMARK(BM_network_step_ring_sparse)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_network_step_ba_very_sparse(benchmark::State& state) {
  network_step_benchmark(state, "ba", 0.98, {0, 0});
}
BENCHMARK(BM_network_step_ba_very_sparse)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_network_step_ring_very_sparse(benchmark::State& state) {
  network_step_benchmark(state, "ring", 0.98, {0, 0});
}
BENCHMARK(BM_network_step_ring_very_sparse)->Arg(1000000)->Unit(benchmark::kMicrosecond);

// --- raw v3 kernels, no engine around them ----------------------------------
//
// Every agent sees the same small committed-neighbour row, so the working
// set is the SoA arrays alone: this is the per-agent cost of the sampling
// arithmetic itself (counter RNG + stage 1 + branchless stage 2), the
// number the DESIGN.md kernel table quotes.  The generic-TU twin runs the
// same formulas one agent at a time — what a host without a vector ISA
// (or SGL_KERNEL=generic) executes.  The `_het` row gives every agent its
// own adoption probabilities (p_reward0/1), the per-agent-rules path whose
// stage 2 runs two mulhi64 products per lane.

void kernel_net2_benchmark(benchmark::State& state, core::kernel::net2_fn fn,
                           bool per_agent = false) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint32_t> rows(n, 3U | (1U << 16));
  std::vector<std::int32_t> previous(n);
  std::vector<std::int32_t> choices(n, -1);
  std::vector<std::uint64_t> changed(n);
  std::vector<std::uint64_t> p_reward0(per_agent ? n : 0);
  std::vector<std::uint64_t> p_reward1(per_agent ? n : 0);
  rng fill{12};
  for (auto& c : previous) {
    c = static_cast<std::int32_t>(fill.next_u64() % 3) - 1;
  }
  for (std::size_t i = 0; i < p_reward0.size(); ++i) {
    p_reward0[i] = prob_to_u64(0.2 + 0.3 * static_cast<double>(i % 5) / 5.0);
    p_reward1[i] = prob_to_u64(0.55 + 0.4 * static_cast<double>(i % 7) / 7.0);
  }
  rng gen{13};
  for (auto _ : state) {
    std::uint32_t changed_len = 0;
    std::uint64_t stage[2] = {0, 0};
    std::uint64_t adopt[2] = {0, 0};
    core::kernel::net2_args a;
    a.step_seed = gen.next_u64();
    a.lo = 0;
    a.hi = n;
    a.rows = rows.data();
    a.previous = previous.data();
    a.choices = choices.data();
    a.t_mu = prob_to_u64(0.05);
    a.thr_explore[0] = prob_to_u64(0.05 * 0.62);
    a.thr_explore[1] = prob_to_u64(0.05 * 0.38);
    a.thr_copy[0] = prob_to_u64(0.05 + 0.95 * 0.62);
    a.thr_copy[1] = prob_to_u64(0.05 + 0.95 * 0.38);
    if (per_agent) {
      a.p_reward0 = p_reward0.data();
      a.p_reward1 = p_reward1.data();
    }
    a.changed = changed.data();
    a.changed_len = &changed_len;
    a.stage = stage;
    a.adopt = adopt;
    fn(a);
    benchmark::DoNotOptimize(changed_len);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_kernel_net2_active(benchmark::State& state) {
  kernel_net2_benchmark(state, core::kernel::net2_step());
}
BENCHMARK(BM_kernel_net2_active)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void BM_kernel_net2_het_active(benchmark::State& state) {
  kernel_net2_benchmark(state, core::kernel::net2_step(), true);
}
BENCHMARK(BM_kernel_net2_het_active)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void BM_kernel_net2_generic(benchmark::State& state) {
  kernel_net2_benchmark(state, core::kernel::net2_step_generic);
}
BENCHMARK(BM_kernel_net2_generic)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void kernel_mixed_benchmark(benchmark::State& state, core::kernel::mixed_fn fn) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t m = 10;
  const std::vector<std::uint64_t> alpha_thr(n, prob_to_u64(0.35));
  const std::vector<std::uint64_t> beta_thr(n, prob_to_u64(0.65));
  std::vector<std::uint64_t> pop_cdf(m - 1);
  for (std::size_t j = 0; j + 1 < m; ++j) {
    pop_cdf[j] = prob_to_u64(static_cast<double>(j + 1) / static_cast<double>(m));
  }
  std::vector<std::int32_t> choices(n, -1);
  std::vector<std::uint32_t> considered(n);
  rng gen{14};
  for (auto _ : state) {
    core::kernel::mixed_args a;
    a.step_seed = gen.next_u64();
    a.n = n;
    a.m = m;
    a.t_mu = prob_to_u64(0.05);
    a.pop_cdf = pop_cdf.data();
    a.reward_bits = 0x155;
    a.alpha_thr = alpha_thr.data();
    a.beta_thr = beta_thr.data();
    a.choices = choices.data();
    a.considered = considered.data();
    fn(a);
    benchmark::DoNotOptimize(choices.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_kernel_mixed_active(benchmark::State& state) {
  kernel_mixed_benchmark(state, core::kernel::mixed_step());
}
BENCHMARK(BM_kernel_mixed_active)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void BM_kernel_mixed_generic(benchmark::State& state) {
  kernel_mixed_benchmark(state, core::kernel::mixed_step_generic);
}
BENCHMARK(BM_kernel_mixed_generic)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

/// Minimal ping-pong node for event-loop throughput.
class pong_node final : public netsim::node {
 public:
  void on_start(netsim::context& ctx) override {
    if (ctx.self() == 0) {
      netsim::message m;
      m.kind = 1;
      ctx.send(1, m);
    }
  }
  void on_message(netsim::context& ctx, const netsim::message& msg) override {
    ctx.send(msg.src, msg);
  }
  void on_timer(netsim::context&, std::int32_t) override {}
};

void BM_netsim_event_throughput(benchmark::State& state) {
  netsim::simulation sim{11};
  sim.add_node(std::make_unique<pong_node>());
  sim.add_node(std::make_unique<pong_node>());
  netsim::link_model links;
  links.base_latency = 1.0;
  sim.set_link_model(links);
  sim.start();
  for (auto _ : state) benchmark::DoNotOptimize(sim.step_one());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_netsim_event_throughput);

}  // namespace

BENCHMARK_MAIN();
