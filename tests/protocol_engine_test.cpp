// The protocol engine as a dynamics_engine: interface contract, the
// reset()-reuse law, bit-identical replays (trajectories, net counters AND
// the full netsim event-trace hash), absolute event-order goldens, schedule
// invariance through the harness and the sweep scheduler, and the
// fault-injection edge cases that must terminate with defined reports
// (total loss, all-crash, zero retries, single-node populations).

#include "protocol/protocol_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "graph/graph.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "support/rng.h"

namespace {

/// Every global operator new in this binary, for the steady-state
/// allocation check below.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sgl;

protocol::engine_config make_config(std::size_t m = 2, double mu = 0.1,
                                    double beta = 0.65) {
  protocol::engine_config config;
  config.dynamics.num_options = m;
  config.dynamics.mu = mu;
  config.dynamics.beta = beta;
  return config;
}

/// Drives the engine `horizon` rounds from fixed streams; returns the
/// flattened popularity trajectory plus the counters (the shape the
/// harness determinism tests use).
std::vector<double> drive(core::dynamics_engine& engine, std::uint64_t horizon,
                          std::uint64_t seed) {
  rng reward_gen = rng::from_stream(seed, 0);
  rng process_gen = rng::from_stream(seed, 1);
  std::vector<std::uint8_t> rewards(engine.num_options());
  std::vector<double> out;
  for (std::uint64_t t = 1; t <= horizon; ++t) {
    for (auto& r : rewards) r = reward_gen.next_bernoulli(0.6) ? 1 : 0;
    engine.step(rewards, process_gen);
    for (const double q : engine.popularity()) out.push_back(q);
  }
  out.push_back(static_cast<double>(engine.empty_steps()));
  out.push_back(static_cast<double>(engine.steps()));
  return out;
}

std::string dump_reports(const core::probe_list& probes) {
  std::string out;
  for (const auto& probe : probes) {
    const core::probe_report report = probe->report();
    out += report.probe;
    for (const auto& scalar : report.scalars) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s=%.17g+-%.17g", scalar.key.c_str(),
                    scalar.value, scalar.half_width);
      out += buf;
    }
    for (const auto& series : report.series) {
      out += ' ';
      out += series.key;
      out += ":[";
      for (const double v : series.values) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g,", v);
        out += buf;
      }
      out += ']';
    }
    out += '\n';
  }
  return out;
}

// --- interface contract ------------------------------------------------------

TEST(protocol_engine, validates_construction_and_inputs) {
  EXPECT_NO_THROW(protocol::protocol_engine(make_config(), 10));
  EXPECT_THROW(protocol::protocol_engine(make_config(), 0), std::invalid_argument);

  protocol::engine_config bad = make_config();
  bad.round_interval = 0.0;
  EXPECT_THROW(protocol::protocol_engine(bad, 10), std::invalid_argument);
  bad = make_config();
  bad.drop_probability = 1.5;
  EXPECT_THROW(protocol::protocol_engine(bad, 10), std::invalid_argument);
  bad = make_config();
  bad.crash_rate = -0.1;
  EXPECT_THROW(protocol::protocol_engine(bad, 10), std::invalid_argument);
  bad = make_config();
  bad.restart_rate = 2.0;
  EXPECT_THROW(protocol::protocol_engine(bad, 10), std::invalid_argument);

  auto ring = std::make_shared<const graph::graph>(graph::graph::ring(8));
  EXPECT_THROW(protocol::protocol_engine(make_config(), 10, ring),
               std::invalid_argument);
  protocol::protocol_engine engine{make_config(), 8, ring};
  rng gen{1};
  const std::vector<std::uint8_t> wrong_width{1, 0, 1};
  EXPECT_THROW(engine.step(wrong_width, gen), std::invalid_argument);
}

TEST(protocol_engine, contract_basics) {
  protocol::protocol_engine engine{make_config(3), 60};
  EXPECT_EQ(engine.num_options(), 3U);
  EXPECT_TRUE(engine.reusable());
  EXPECT_EQ(engine.steps(), 0U);
  for (const double q : engine.popularity()) EXPECT_DOUBLE_EQ(q, 1.0 / 3.0);

  rng gen{7};
  const std::vector<std::uint8_t> rewards{1, 0, 1};
  for (int t = 1; t <= 40; ++t) {
    engine.step(rewards, gen);
    EXPECT_EQ(engine.steps(), static_cast<std::uint64_t>(t));
    double total = 0.0;
    for (const double q : engine.popularity()) total += q;
    ASSERT_NEAR(total, 1.0, 1e-9);
    const auto counts = engine.adopter_counts();
    ASSERT_EQ(counts.size(), 3U);
    const std::uint64_t committed =
        std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    EXPECT_LE(committed, 60U);
    EXPECT_EQ(committed, engine.sample_net().committed);
  }
  const core::net_metrics net = engine.sample_net();
  EXPECT_GT(net.messages_sent, 0U);
  EXPECT_GT(net.timers_fired, 0U);
  EXPECT_EQ(net.bytes_sent, net.messages_sent * netsim::message::wire_bytes);
  EXPECT_EQ(net.alive, 60U);
}

// --- determinism -------------------------------------------------------------

TEST(protocol_engine, reset_reuse_law) {
  protocol::engine_config config = make_config(2, 0.1, 0.7);
  config.drop_probability = 0.2;
  config.jitter_mean = 0.1;
  auto reused = std::make_unique<protocol::protocol_engine>(config, 80);
  const std::vector<double> first = drive(*reused, 50, 11);
  reused->reset();
  const std::vector<double> again = drive(*reused, 50, 11);
  protocol::protocol_engine fresh{config, 80};
  const std::vector<double> reference = drive(fresh, 50, 11);
  EXPECT_EQ(first, reference);
  EXPECT_EQ(again, reference);
}

TEST(protocol_engine, replay_is_bit_identical_including_event_trace) {
  protocol::engine_config config = make_config(2, 0.1, 0.7);
  config.drop_probability = 0.15;
  config.jitter_mean = 0.05;
  config.crash_rate = 0.01;
  config.restart_rate = 0.2;

  protocol::protocol_engine a{config, 70};
  protocol::protocol_engine b{config, 70};
  const std::vector<double> trajectory_a = drive(a, 60, 5);
  const std::vector<double> trajectory_b = drive(b, 60, 5);
  EXPECT_EQ(trajectory_a, trajectory_b);

  const core::net_metrics net_a = a.sample_net();
  const core::net_metrics net_b = b.sample_net();
  EXPECT_EQ(net_a.messages_sent, net_b.messages_sent);
  EXPECT_EQ(net_a.messages_delivered, net_b.messages_delivered);
  EXPECT_EQ(net_a.messages_dropped, net_b.messages_dropped);
  EXPECT_EQ(net_a.timers_fired, net_b.timers_fired);
  EXPECT_EQ(net_a.commit_events, net_b.commit_events);
  EXPECT_EQ(net_a.commit_latency_rounds, net_b.commit_latency_rounds);

  ASSERT_NE(a.simulation(), nullptr);
  ASSERT_NE(b.simulation(), nullptr);
  EXPECT_EQ(a.simulation()->trace_hash(), b.simulation()->trace_hash())
      << "full event traces must replay bit-identically";

  // A different replication stream is a genuinely different trace.
  protocol::protocol_engine c{config, 70};
  (void)drive(c, 60, 6);
  EXPECT_NE(a.simulation()->trace_hash(), c.simulation()->trace_hash());
}

// --- event-order goldens -----------------------------------------------------
//
// Replays compare runs against runs, so a queue that reordered events
// self-consistently would pass them.  These values pin the absolute
// (time, seq) dispatch order of each configuration: trace_hash() folds
// every dispatched event, and the counters pin what the order implies.

struct order_golden {
  const char* name;
  std::uint64_t trace_hash;
  std::uint64_t messages_sent;
  std::uint64_t messages_delivered;
  std::uint64_t messages_dropped;
  std::uint64_t timers_fired;
};

std::string describe(const netsim::simulation& sim) {
  const netsim::network_stats& s = sim.stats();
  char buf[160];
  std::snprintf(buf, sizeof buf, "0x%016llxULL, %llu, %llu, %llu, %llu",
                static_cast<unsigned long long>(sim.trace_hash()),
                static_cast<unsigned long long>(s.messages_sent),
                static_cast<unsigned long long>(s.messages_delivered),
                static_cast<unsigned long long>(s.messages_dropped),
                static_cast<unsigned long long>(s.timers_fired));
  return buf;
}

void expect_golden(const netsim::simulation& sim, const order_golden& golden) {
  const netsim::network_stats& s = sim.stats();
  EXPECT_EQ(sim.trace_hash(), golden.trace_hash) << golden.name << ": " << describe(sim);
  EXPECT_EQ(s.messages_sent, golden.messages_sent) << golden.name;
  EXPECT_EQ(s.messages_delivered, golden.messages_delivered) << golden.name;
  EXPECT_EQ(s.messages_dropped, golden.messages_dropped) << golden.name;
  EXPECT_EQ(s.timers_fired, golden.timers_fired) << golden.name;
}

protocol::engine_config bench_shape(double drop, double jitter) {
  protocol::engine_config config;
  config.dynamics = core::theorem_params(2, 0.65);
  config.drop_probability = drop;
  config.jitter_mean = jitter;
  return config;
}

/// A node that pings its successor once per start and answers pings, so
/// the queue drains between scripted faults.
class pinger final : public netsim::node {
 public:
  void on_start(netsim::context& ctx) override {
    netsim::message m;
    m.kind = 1;
    m.a = static_cast<std::int64_t>(ctx.self());
    ctx.send(static_cast<netsim::node_id>((ctx.self() + 1) % ctx.num_nodes()), m);
    ctx.set_timer(0.25, 3);
  }
  void on_message(netsim::context& ctx, const netsim::message& msg) override {
    if (msg.kind != 1) return;
    netsim::message reply;
    reply.kind = 2;
    reply.b = msg.a;
    ctx.send(msg.src, reply);
  }
  void on_timer(netsim::context&, std::int32_t) override {}
};

TEST(protocol_engine, event_order_goldens) {
  struct engine_case {
    order_golden golden;
    protocol::engine_config config;
    std::size_t nodes;
    std::shared_ptr<const graph::graph> topology;
    std::uint64_t rounds;
  };
  std::vector<engine_case> cases;

  // gossip_ring_300: C_300, m = 2, jitter 0.02.
  cases.push_back({{"ring300", 0xf70152dd18559eb1ULL, 51362, 51263, 0, 12000},
                   bench_shape(0.0, 0.02),
                   300,
                   std::make_shared<const graph::graph>(graph::graph::ring(300)),
                   40});
  // BM_protocol_round_mixed/1024: fully mixed, fixed latency, no jitter.
  cases.push_back({{"mixed1024", 0xf83345c30d287f18ULL, 73421, 73316, 0, 20480}, bench_shape(0.0, 0.0), 1024, nullptr, 20});
  // BM_protocol_round_lossy_jittery.
  cases.push_back(
      {{"lossy_jittery", 0x7cd557c0af4e361dULL, 45487, 31610, 13658, 20480}, bench_shape(0.3, 0.1), 1024, nullptr, 20});
  // gossip_sync_ideal: zero latency, so pushes land at exactly now and
  // ties resolve by seq.
  protocol::engine_config sync = bench_shape(0.0, 0.0);
  sync.base_latency = 0.0;
  sync.lockstep = true;
  sync.max_retries = 16;
  cases.push_back({{"sync_ideal", 0x41c792a10fdccf86ULL, 54702, 54702, 0, 12000}, sync, 400, nullptr, 30});
  // BM_protocol_round_nemesis/0: a partition window, a crash wave and a
  // restart wave on the lossy, jittery fully mixed population.
  protocol::engine_config nemesis = bench_shape(0.1, 0.05);
  netsim::fault_action cut;
  cut.which = netsim::fault_action::kind::partition;
  cut.at = 10.0;
  cut.until = 30.0;
  for (netsim::node_id id = 0; id < 512; ++id) cut.targets.push_back(id);
  nemesis.faults.actions.push_back(cut);
  netsim::fault_action wave;
  wave.which = netsim::fault_action::kind::crash_wave;
  wave.at = 40.0;
  wave.fraction = 0.2;
  nemesis.faults.actions.push_back(wave);
  netsim::fault_action back;
  back.which = netsim::fault_action::kind::restart_wave;
  back.at = 60.0;
  nemesis.faults.actions.push_back(back);
  cases.push_back({{"nemesis", 0x357278ca6f9c8b19ULL, 151543, 121317, 29989, 62640}, nemesis, 1024, nullptr, 65});

  for (const engine_case& c : cases) {
    protocol::protocol_engine engine{c.config, c.nodes, c.topology};
    // The second pass runs on a reset engine: reuse must not move a thing.
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) engine.reset();
      (void)drive(engine, c.rounds, 2017);
      ASSERT_NE(engine.simulation(), nullptr);
      expect_golden(*engine.simulation(), c.golden);
    }
  }

  // A scripted fault at t = 1e6 after the queue has sat empty through a
  // long run_until gap; the restart re-pings, so traffic resumes there.
  netsim::simulation sim{2017};
  for (int i = 0; i < 5; ++i) sim.add_node(std::make_unique<pinger>());
  netsim::link_model links;
  links.base_latency = 0.1;
  links.jitter_mean = 0.05;
  sim.set_link_model(links);
  netsim::fault_schedule schedule;
  netsim::fault_action split;
  split.which = netsim::fault_action::kind::partition;
  split.at = 0.05;
  split.until = 0.3;
  split.targets = {0, 1};
  schedule.actions.push_back(split);
  netsim::fault_action crash;
  crash.which = netsim::fault_action::kind::crash_wave;
  crash.at = 1e6;
  crash.targets = {2, 3};
  schedule.actions.push_back(crash);
  netsim::fault_action revive;
  revive.which = netsim::fault_action::kind::restart_wave;
  revive.at = 1e6 + 0.5;
  schedule.actions.push_back(revive);
  sim.set_fault_schedule(schedule);
  sim.start();
  sim.run_until(10.0);
  sim.run_until(5e5);
  sim.run_until(2e6);
  expect_golden(sim, {"idle_gap_fault", 0xc151774bea5eb2bfULL, 12, 10, 2, 7});
}

TEST(protocol_engine, steady_state_rounds_allocate_nothing) {
  // Once the queue has sized itself, a round dispatches thousands of
  // events without a heap allocation: events live in the reused slab.
  struct shape {
    protocol::engine_config config;
    std::size_t nodes;
    std::shared_ptr<const graph::graph> topology;
  };
  const shape shapes[] = {
      {bench_shape(0.0, 0.02), 300,
       std::make_shared<const graph::graph>(graph::graph::ring(300))},
      {bench_shape(0.3, 0.1), 512, nullptr},
  };
  for (const shape& s : shapes) {
    protocol::protocol_engine engine{s.config, s.nodes, s.topology};
    rng reward_gen{5};
    rng process_gen{6};
    std::vector<std::uint8_t> rewards(engine.num_options());
    const auto round = [&] {
      for (auto& r : rewards) r = reward_gen.next_bernoulli(0.6) ? 1 : 0;
      engine.step(rewards, process_gen);
    };
    for (int t = 0; t < 20; ++t) round();
    const std::uint64_t sent = engine.simulation()->stats().messages_sent;
    const std::uint64_t before = g_allocations.load();
    for (int t = 0; t < 20; ++t) round();
    EXPECT_EQ(g_allocations.load() - before, 0U) << s.nodes << " nodes";
    EXPECT_GT(engine.simulation()->stats().messages_sent - sent, 20U * s.nodes);
  }
}

TEST(protocol_engine, harness_results_invariant_to_threads_and_reuse) {
  scenario::scenario_spec spec = scenario::get_scenario("gossip_lossy_sweep");
  spec.num_agents = 150;
  core::run_config config;
  config.horizon = 20;
  config.replications = 6;
  config.seed = 17;

  config.threads = 1;
  config.reuse = true;
  const std::string reference = dump_reports(scenario::run_probes(spec, config));
  for (const unsigned threads : {1U, 4U}) {
    for (const bool reuse : {true, false}) {
      config.threads = threads;
      config.reuse = reuse;
      EXPECT_EQ(dump_reports(scenario::run_probes(spec, config)), reference)
          << "threads=" << threads << " reuse=" << reuse;
    }
  }
}

TEST(protocol_engine, sweep_points_bit_identical_to_individual_runs) {
  scenario::scenario_spec base = scenario::get_scenario("gossip_lossy_sweep");
  base.num_agents = 120;
  const scenario::sweep_axis axis =
      scenario::parse_sweep_axis("protocol.drop_probability=0:0.2:0.1");
  const auto grid = scenario::expand_sweep(std::span{&axis, 1});
  ASSERT_EQ(grid.size(), 3U);

  core::run_config config;
  config.horizon = 15;
  config.replications = 4;
  config.seed = 23;
  config.threads = 1;

  std::vector<std::string> reference;
  for (const auto& assignments : grid) {
    scenario::scenario_spec point = base;
    for (const auto& [key, value] : assignments) {
      scenario::apply_override(point, key, value);
    }
    reference.push_back(dump_reports(scenario::run_probes(point, config)));
  }
  for (const unsigned threads : {1U, 4U}) {
    config.threads = threads;
    const auto results = scenario::run_sweep(base, grid, config);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t p = 0; p < results.size(); ++p) {
      EXPECT_EQ(dump_reports(results[p].probes), reference[p])
          << "point " << p << " threads=" << threads;
    }
  }
}

// --- fault-injection edge cases ---------------------------------------------

TEST(protocol_engine, total_packet_loss_terminates_with_defined_reports) {
  protocol::engine_config config = make_config(2, 0.1, 0.7);
  config.drop_probability = 1.0;
  protocol::protocol_engine engine{config, 50};
  rng gen{3};
  const std::vector<std::uint8_t> rewards{1, 0};
  for (int t = 0; t < 30; ++t) {
    engine.step(rewards, gen);
    double total = 0.0;
    for (const double q : engine.popularity()) total += q;
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
  const core::net_metrics net = engine.sample_net();
  EXPECT_EQ(net.messages_delivered, 0U);
  EXPECT_EQ(net.messages_dropped, net.messages_sent);
  // Exploration does not need the network: commits still happen.
  EXPECT_GT(net.commit_events, 0U);
}

TEST(protocol_engine, all_crash_terminates_with_defined_reports) {
  protocol::engine_config config = make_config(2, 0.1, 0.7);
  config.crash_rate = 1.0;
  protocol::protocol_engine engine{config, 40};
  rng gen{4};
  const std::vector<std::uint8_t> rewards{1, 0};
  for (int t = 0; t < 20; ++t) engine.step(rewards, gen);
  const core::net_metrics net = engine.sample_net();
  EXPECT_EQ(net.alive, 0U);
  EXPECT_EQ(net.committed, 0U);
  // Nobody alive => nobody adopts => uniform popularity and empty steps.
  for (const double q : engine.popularity()) EXPECT_DOUBLE_EQ(q, 0.5);
  EXPECT_EQ(engine.empty_steps(), 20U);

  // All-crash with certain restart keeps oscillating instead of hanging.
  config.restart_rate = 1.0;
  protocol::protocol_engine churned{config, 40};
  for (int t = 0; t < 20; ++t) churned.step(rewards, gen);
  EXPECT_EQ(churned.steps(), 20U);
}

TEST(protocol_engine, zero_retries_and_single_node_terminate) {
  protocol::engine_config config = make_config(3, 0.2, 0.7);
  config.max_retries = 0;
  protocol::protocol_engine engine{config, 30};
  rng gen{5};
  const std::vector<std::uint8_t> rewards{1, 0, 1};
  for (int t = 0; t < 25; ++t) engine.step(rewards, gen);
  EXPECT_EQ(engine.steps(), 25U);

  // A single isolated node can only self-explore: no messages, no hangs,
  // no division by zero in the popularity normalization.
  protocol::protocol_engine lonely{make_config(2, 0.1, 0.7), 1};
  const std::vector<std::uint8_t> two{1, 0};
  for (int t = 0; t < 40; ++t) {
    lonely.step(two, gen);
    double total = 0.0;
    for (const double q : lonely.popularity()) total += q;
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_EQ(lonely.sample_net().messages_sent, 0U);
}

TEST(protocol_engine, adoption_probe_survives_total_crash) {
  scenario::scenario_spec spec = scenario::get_scenario("gossip_crash_recovery");
  spec.num_agents = 60;
  spec.protocol.crash_rate = 1.0;
  spec.protocol.restart_rate = 0.0;
  core::run_config config;
  config.horizon = 10;
  config.replications = 2;
  config.seed = 2;
  config.threads = 1;
  const std::vector<std::string> probes{"adoption", "message_cost", "commit_latency"};
  const core::probe_list merged = scenario::run_probes(spec, config, probes);
  const core::probe_report adoption = merged[0]->report();
  const auto* alive = adoption.find_scalar("final_alive_fraction");
  ASSERT_NE(alive, nullptr);
  EXPECT_DOUBLE_EQ(alive->value, 0.0);
  const auto* committed = adoption.find_scalar("committed_fraction");
  ASSERT_NE(committed, nullptr);
  EXPECT_DOUBLE_EQ(committed->value, 0.0);
}

// --- probes on non-network engines -------------------------------------------

TEST(protocol_probes, report_zero_replications_for_plain_engines) {
  const scenario::scenario_spec spec = scenario::get_scenario("mixed_baseline");
  core::run_config config;
  config.horizon = 10;
  config.replications = 3;
  config.threads = 1;
  const std::vector<std::string> probes{"message_cost", "commit_latency", "adoption"};
  const core::probe_list merged = scenario::run_probes(spec, config, probes);
  for (const auto& probe : merged) {
    const core::probe_report report = probe->report();
    const auto* replications = report.find_scalar("replications");
    ASSERT_NE(replications, nullptr) << report.probe;
    EXPECT_DOUBLE_EQ(replications->value, 0.0) << report.probe;
  }
}

// --- scenario/spec validation ------------------------------------------------

TEST(protocol_spec, validate_rejects_unused_families_and_bad_ranges) {
  scenario::scenario_spec spec = scenario::get_scenario("gossip_lossy_sweep");
  EXPECT_NO_THROW(scenario::validate_spec(spec));

  scenario::scenario_spec grouped = spec;
  grouped.groups = {{100, {0.3, 0.7}}};
  EXPECT_THROW(scenario::validate_spec(grouped), std::invalid_argument);

  scenario::scenario_spec started = spec;
  started.start = {0.5, 0.5};
  EXPECT_THROW(scenario::validate_spec(started), std::invalid_argument);

  scenario::scenario_spec ruled = spec;
  ruled.agent_rules = {{0.3, 0.7}};
  EXPECT_THROW(scenario::validate_spec(ruled), std::invalid_argument);

  scenario::scenario_spec bad_rate = spec;
  bad_rate.protocol.crash_rate = 1.5;
  EXPECT_THROW(scenario::validate_spec(bad_rate), std::invalid_argument);

  scenario::scenario_spec no_nodes = spec;
  no_nodes.num_agents = 0;
  EXPECT_THROW(scenario::validate_spec(no_nodes), std::invalid_argument);
}

}  // namespace
