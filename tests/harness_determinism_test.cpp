// Schedule-invariance of the amortized Monte-Carlo harness (PR 4).
//
// Three laws are pinned here:
//   1. Registry-wide golden run — every named scenario (shrunk to
//      unit-test size), 2 replications, must hash to the values captured
//      from the PRE-PR-4 harness, for threads 1 and 4.  This is the proof
//      that the persistent pool, the context reuse and the sweep scheduler
//      changed wall clock only.
//   2. The reset()-reuse law — for every engine kind, a fresh engine and a
//      used-then-reset() engine produce identical trajectories from the
//      same stream, also when the engine was constructed from a start.
//   3. The flattened sweep scheduler returns, per grid point, bit-identical
//      probes to running each point alone through run_probes — again for
//      any thread count — and shares built topologies
//      across points via the keyed cache.
//
// Regenerating the golden table (ONLY when an intentional
// bit-compatibility break ships): run every registry scenario through
// shrink() + run_probes with golden_config(1) below, hash
// dump_reports() with fnv1a(), and replace the table — ideally with a
// binary built from the commit *before* the behavioural change, so the
// table keeps pinning the old outputs unless the break is deliberate.
// The table is host-independent: ctest runs this binary a second time
// under SGL_KERNEL=generic and it must match on every ISA.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/experiment.h"
#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/probe.h"
#include "graph/graph.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "support/rng.h"

namespace {

using namespace sgl;

// --- canonical probe-report dump + hash (must match the capture tool) -------

scenario::scenario_spec shrink(scenario::scenario_spec spec) {
  if (spec.num_agents > 2000) spec.num_agents = 2000;
  return spec;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

std::string dump_reports(const core::probe_list& probes) {
  std::string out;
  for (const auto& probe : probes) {
    const core::probe_report report = probe->report();
    out += report.probe;
    out += '\n';
    for (const auto& scalar : report.scalars) {
      out += scalar.key;
      out += '=';
      append_double(out, scalar.value);
      if (scalar.has_ci) {
        out += "+-";
        append_double(out, scalar.half_width);
      }
      out += '\n';
    }
    for (const auto& series : report.series) {
      out += series.key;
      out += "=[";
      for (std::size_t i = 0; i < series.values.size(); ++i) {
        if (i != 0) out += ',';
        append_double(out, series.values[i]);
      }
      out += "]\n";
    }
  }
  return out;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Captured from the harness as of PR 3 (horizon 40, 2 replications,
// seed 7, each scenario's default probes, num_agents capped at 2000).
// Any change here is a break in bit-compatibility with every experiment
// recorded before PR 4.
const std::map<std::string, std::uint64_t>& golden_hashes() {
  static const std::map<std::string, std::uint64_t> golden{
      {"quickstart", 0xc3608dc104f28a7aULL},
      {"theorem-infinite", 0x551e80674b435a39ULL},
      {"theorem-finite", 0x6fb83e153d3361a3ULL},
      {"nonuniform-start", 0xb19fb10090b612b9ULL},
      {"ef-exclusive", 0xd7acf835755c47bbULL},
      {"switching-stocks", 0x9fa0f457cc2a5afcULL},
      {"drifting-crossover", 0x066502c44bdda652ULL},
      // The sparse two-option network scenarios (all below but the dense
      // two-cliques) run the net2 kernel, derivation v3, and were rebased
      // once when their v2 loop was retired (DESIGN.md, "The one-time
      // golden rebase").  Each value is what the build before the rebase
      // gave under the retired `kernel = simd` setting, so v3 is unchanged.
      {"ring", 0xda1f1fca42bd2e71ULL},
      {"small-world", 0x41fed4e373f8ba29ULL},
      {"two-cliques", 0x9911e150972b1389ULL},
      {"torus", 0xe91fbe8fef142060ULL},
      {"network_ring_1e5", 0x1b436d2350c190d9ULL},
      {"network_ba_1e6", 0x708c0ff7c29e024cULL},
      {"network_smallworld_1e6", 0x74f21c2de623aff0ULL},
      // Protocol scenarios (captured at their introduction, same recipe;
      // pinned for threads 1/4 like every other entry).
      {"gossip_sensor_1e4", 0x9da69ff016826b51ULL},
      {"gossip_lossy_sweep", 0xb11ed27a37aa3254ULL},
      {"gossip_crash_recovery", 0xb685e7730fef8668ULL},
      {"gossip_ring_300", 0xfe7534e2f5d77a62ULL},
      {"gossip_sync_ideal", 0x45ff2dc5d0f3003aULL},
      // Nemesis scenarios (faults.* schedules; captured at their
      // introduction).  Scheduled faults are first-class (time, seq) events
      // and fractional waves draw from a dedicated stream, so these hashes
      // pin the fault timeline as well as the dynamics.
      {"gossip_partition_heal", 0x032e6b7e8b740ab3ULL},
      {"gossip_crash_waves", 0xadbe1edec65331d3ULL},
      {"gossip_degraded_links", 0xc08c536a76a814d6ULL},
      {"mixed_baseline", 0x6fb83e153d3361a3ULL},
      {"switching_recovery", 0x4f7edc6c417486e9ULL},
      {"two_cliques_consensus", 0x8f5a35a4ee114aa2ULL},
      {"drift_tracking_1e5", 0x42f49b5ffa3a4f71ULL},
      {"mixture-discernment", 0x1111f9065abc8130ULL},
  };
  return golden;
}

core::run_config golden_config(unsigned threads) {
  core::run_config config;
  config.horizon = 40;
  config.replications = 2;
  config.seed = 7;
  config.threads = threads;
  return config;
}

TEST(harness_golden, registry_bit_identical_across_threads) {
  const auto& golden = golden_hashes();
  std::size_t covered = 0;
  for (const auto& spec : scenario::all_scenarios()) {
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end())
        << "scenario '" << spec.name
        << "' has no golden hash; regenerate the table (see the capture "
           "recipe in this file's header)";
    ++covered;
    const scenario::scenario_spec small = shrink(spec);
    for (const unsigned threads : {1U, 4U}) {
      const core::probe_list merged = scenario::run_probes(small, golden_config(threads));
      EXPECT_EQ(fnv1a(dump_reports(merged)), it->second)
          << "scenario '" << spec.name << "' diverged from the pre-PR-4 "
          << "harness with threads=" << threads;
    }
  }
  // The table must shrink when scenarios are retired, too.
  EXPECT_EQ(covered, golden.size());
}

// --- the reset()-reuse law ---------------------------------------------------

core::dynamics_params test_params(std::size_t m) {
  core::dynamics_params params;
  params.num_options = m;
  params.beta = 0.65;
  params.mu = 0.05;
  return params;
}

/// Drives `engine` for `horizon` steps from fixed streams and returns the
/// flattened popularity trajectory plus the counters.
std::vector<double> trajectory_of(core::dynamics_engine& engine, std::uint64_t horizon,
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

/// The law itself: run a fresh engine; run the same engine again after
/// reset(); both trajectories must match a second fresh engine bit for bit.
template <typename MakeEngine>
void expect_reset_reuse_law(MakeEngine make_engine, std::uint64_t horizon = 60) {
  auto reused = make_engine();
  const std::vector<double> first = trajectory_of(*reused, horizon, 11);
  reused->reset();
  const std::vector<double> again = trajectory_of(*reused, horizon, 11);
  auto fresh = make_engine();
  const std::vector<double> reference = trajectory_of(*fresh, horizon, 11);
  EXPECT_EQ(first, reference);
  EXPECT_EQ(again, reference);
}

TEST(reset_reuse_law, aggregate) {
  expect_reset_reuse_law(
      [] { return std::make_unique<core::aggregate_dynamics>(test_params(4), 500); });
}

TEST(reset_reuse_law, infinite) {
  expect_reset_reuse_law(
      [] { return std::make_unique<core::infinite_dynamics>(test_params(4)); });
}

TEST(reset_reuse_law, infinite_nonuniform_start) {
  expect_reset_reuse_law([] {
    const std::vector<double> start{0.1, 0.2, 0.3, 0.4};
    return std::make_unique<core::infinite_dynamics>(test_params(4), start);
  });
}

TEST(reset_reuse_law, aggregate_counts_start) {
  expect_reset_reuse_law([] {
    const std::vector<std::uint64_t> counts{40, 30, 20, 10};
    return std::make_unique<core::aggregate_dynamics>(test_params(4), 500, counts);
  });
}

TEST(reset_reuse_law, grouped) {
  expect_reset_reuse_law([] {
    return std::make_unique<core::aggregate_dynamics>(
        test_params(3),
        std::vector<core::rule_group>{{200, {0.1, 0.9}}, {300, {0.35, 0.65}}});
  });
}

TEST(reset_reuse_law, agent_based_fully_mixed) {
  // An agent_based spec with no graph and no per-agent rules builds this.
  expect_reset_reuse_law(
      [] { return std::make_unique<core::aggregate_dynamics>(test_params(4), 400); });
}

TEST(reset_reuse_law, finite_per_agent_rules) {
  expect_reset_reuse_law([] {
    std::vector<core::adoption_rule> rules(120);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      rules[i] = i % 2 == 0 ? core::adoption_rule{0.1, 0.9} : core::adoption_rule{0.3, 0.7};
    }
    return std::make_unique<core::finite_dynamics>(test_params(3), 120, nullptr,
                                                   std::move(rules));
  });
}

TEST(reset_reuse_law, finite_network_sparse_and_dense) {
  const auto ring = std::make_shared<const graph::graph>(graph::graph::ring(300));
  expect_reset_reuse_law([ring] {
    return std::make_unique<core::finite_dynamics>(test_params(2), 300, ring);
  });
  const auto cliques =
      std::make_shared<const graph::graph>(graph::graph::two_cliques(150, 2));
  expect_reset_reuse_law([cliques] {
    return std::make_unique<core::finite_dynamics>(test_params(2), 300, cliques);
  });
}

TEST(reset_reuse_law, reset_returns_to_the_constructed_start) {
  const std::vector<double> start{0.5, 0.25, 0.125, 0.125};
  core::infinite_dynamics infinite{test_params(4), start};
  const std::vector<double> p0(infinite.popularity().begin(), infinite.popularity().end());
  EXPECT_EQ(p0, start);
  trajectory_of(infinite, 30, 5);
  infinite.reset();
  EXPECT_EQ(std::vector<double>(infinite.popularity().begin(), infinite.popularity().end()),
            p0)
      << "reset() returns to `start`, not to uniform";
  EXPECT_EQ(infinite.steps(), 0U);
  EXPECT_EQ(infinite.log_potential(), std::log(4.0));

  const std::vector<std::uint64_t> counts{40, 30, 20, 10};
  core::aggregate_dynamics aggregate{test_params(4), 100, counts};
  const std::vector<double> q0(aggregate.popularity().begin(), aggregate.popularity().end());
  EXPECT_EQ(q0, (std::vector<double>{0.4, 0.3, 0.2, 0.1}));
  trajectory_of(aggregate, 30, 5);
  aggregate.reset();
  EXPECT_EQ(std::vector<double>(aggregate.popularity().begin(), aggregate.popularity().end()),
            q0);
  EXPECT_EQ(std::vector<std::uint64_t>(aggregate.adopter_counts().begin(),
                                       aggregate.adopter_counts().end()),
            counts);
  EXPECT_EQ(aggregate.adopters(), 100U);
  EXPECT_EQ(aggregate.steps(), 0U);
  EXPECT_EQ(aggregate.empty_steps(), 0U);
}

// --- the sweep scheduler -----------------------------------------------------

TEST(run_sweep, bit_identical_to_sequential_run_probes) {
  const scenario::scenario_spec base = scenario::get_scenario("mixed_baseline");
  std::vector<scenario::sweep_axis> axes;
  axes.push_back(scenario::parse_sweep_axis("params.beta=0.6,0.65"));
  axes.push_back(scenario::parse_sweep_axis("num_agents=500,1000"));
  const auto grid = scenario::expand_sweep(axes);
  ASSERT_EQ(grid.size(), 4U);
  const std::vector<std::string> probes{"regret", "final_histogram"};

  core::run_config config;
  config.horizon = 60;
  config.replications = 5;
  config.seed = 3;

  // The reference: each point alone, single-threaded, through run_probes.
  std::vector<std::string> reference;
  for (const auto& assignments : grid) {
    scenario::scenario_spec point = base;
    for (const auto& [key, value] : assignments) {
      scenario::apply_override(point, key, value);
    }
    config.threads = 1;
    reference.push_back(dump_reports(scenario::run_probes(point, config, probes)));
  }

  for (const unsigned threads : {1U, 4U}) {
    config.threads = threads;
    const auto results = scenario::run_sweep(base, grid, config, probes);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t p = 0; p < results.size(); ++p) {
      EXPECT_EQ(results[p].assignments, grid[p]);
      EXPECT_EQ(dump_reports(results[p].probes), reference[p])
          << "point " << p << " threads=" << threads;
    }
  }
}

TEST(run_sweep, empty_grid_is_one_point_and_matches_run_probes) {
  const scenario::scenario_spec base = scenario::get_scenario("theorem-finite");
  core::run_config config;
  config.horizon = 50;
  config.replications = 4;
  config.seed = 5;
  config.threads = 1;
  const auto results = scenario::run_sweep(base, {}, config);
  ASSERT_EQ(results.size(), 1U);
  EXPECT_TRUE(results[0].assignments.empty());
  EXPECT_EQ(dump_reports(results[0].probes),
            dump_reports(scenario::run_probes(base, config)));
}

TEST(run_sweep, empty_trailing_shards_still_match_run_probes) {
  // 65 replications: reduce_layout gives 64 shards of chunk 2, so shards
  // 33..63 cover no replications.  Their accumulators must still merge
  // (as run_with_probes merges its empty shards) without ever borrowing
  // an engine, and the result must stay bit-identical.
  const scenario::scenario_spec base = scenario::get_scenario("theorem-finite");
  core::run_config config;
  config.horizon = 10;
  config.replications = 65;
  config.seed = 13;
  config.threads = 1;
  const std::string reference = dump_reports(scenario::run_probes(base, config));
  for (const unsigned threads : {1U, 4U}) {
    config.threads = threads;
    const auto results = scenario::run_sweep(base, {}, config);
    ASSERT_EQ(results.size(), 1U);
    EXPECT_EQ(dump_reports(results[0].probes), reference) << "threads=" << threads;
  }
}

TEST(run_sweep, validates_every_point_before_running) {
  const scenario::scenario_spec base = scenario::get_scenario("mixed_baseline");
  std::vector<std::vector<std::pair<std::string, std::string>>> grid;
  grid.push_back({{"params.beta", "0.6"}});
  grid.push_back({{"params.beta", "1.5"}});  // invalid: beta must be < 1
  core::run_config config;
  config.horizon = 10;
  config.replications = 2;
  EXPECT_THROW((void)scenario::run_sweep(base, grid, config), std::invalid_argument);
}

TEST(run_sweep, topology_cache_shares_graphs_across_points) {
  const scenario::scenario_spec base = scenario::get_scenario("small-world");
  std::vector<scenario::sweep_axis> axes;
  axes.push_back(scenario::parse_sweep_axis("params.beta=0.6,0.62,0.64,0.66"));
  const auto grid = scenario::expand_sweep(axes);
  core::run_config config;
  config.horizon = 10;
  config.replications = 2;
  config.seed = 2;

  const scenario::topology_cache_stats before = scenario::shared_topology_stats();
  (void)scenario::run_sweep(base, grid, config);
  const scenario::topology_cache_stats after = scenario::shared_topology_stats();
  // Four points, one topology key: at most one build, at least three hits.
  EXPECT_LE(after.misses - before.misses, 1U);
  EXPECT_GE(after.hits - before.hits, 3U);
}

}  // namespace
