// The faults.* nemesis family, bottom to top:
//   * fault_schedule::validate rejects malformed schedules naming the action;
//   * scheduled partitions / crash waves / restart waves / degrade windows
//     execute as first-class (time, seq) events with the documented effects;
//   * the whole fault timeline is deterministic: equal seeds give equal
//     trace hashes, recorder attachment costs nothing, and a scheduled run
//     is bit-identical across harness thread counts;
//   * the scenario layer round-trips faults.* through the text format,
//     gates the family on the protocol engine, and reports range errors by
//     key name.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "netsim/simulation.h"
#include "netsim/trace.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"

namespace {

using namespace sgl;
using netsim::fault_action;
using netsim::fault_schedule;
using netsim::node_id;

/// Sends one message to `peer` every second (timer-driven, so scheduled
/// faults activating at fractional times interleave cleanly).
class pinger : public netsim::node {
 public:
  explicit pinger(node_id peer) : peer_{peer} {}
  void on_start(netsim::context& ctx) override { ctx.set_timer(1.0, 1); }
  void on_message(netsim::context&, const netsim::message&) override {}
  void on_timer(netsim::context& ctx, std::int32_t) override {
    netsim::message m;
    m.kind = 42;
    ctx.send(peer_, m);
    ctx.set_timer(1.0, 1);
  }

 private:
  node_id peer_;
};

/// Records when messages arrive.
class sink : public netsim::node {
 public:
  void on_start(netsim::context&) override {}
  void on_message(netsim::context& ctx, const netsim::message&) override {
    receive_times.push_back(ctx.now());
  }
  void on_timer(netsim::context&, std::int32_t) override {}

  std::vector<double> receive_times;
};

/// Counts on_start calls (restart visibility).
class start_counter : public netsim::node {
 public:
  void on_start(netsim::context&) override { ++starts; }
  void on_message(netsim::context&, const netsim::message&) override {}
  void on_timer(netsim::context&, std::int32_t) override {}
  int starts = 0;
};

fault_action partition_action(double at, double until, std::vector<node_id> side) {
  fault_action act;
  act.which = fault_action::kind::partition;
  act.at = at;
  act.until = until;
  act.targets = std::move(side);
  return act;
}

// --- schedule validation ----------------------------------------------------

TEST(fault_schedule, validate_rejects_malformed_actions) {
  const auto expect_invalid = [](const fault_action& act, const char* what) {
    fault_schedule schedule;
    schedule.actions.push_back(act);
    try {
      schedule.validate(4);
      FAIL() << "expected " << what << " to be rejected";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("action 0"), std::string::npos)
          << what << ": message should name the action: " << error.what();
    }
  };

  expect_invalid(partition_action(-1.0, 2.0, {0}), "negative at");
  expect_invalid(partition_action(3.0, 3.0, {0}), "empty window");
  expect_invalid(partition_action(1.0, -1.0, {0}), "partition without until");
  expect_invalid(partition_action(1.0, 2.0, {}), "partition with empty side");
  expect_invalid(partition_action(1.0, 2.0, {0, 1, 2, 3}), "complete side");
  expect_invalid(partition_action(1.0, 2.0, {9}), "target out of range");

  fault_action fractional_partition = partition_action(1.0, 2.0, {0});
  fractional_partition.fraction = 0.5;
  expect_invalid(fractional_partition, "partition with a fraction");

  fault_action crash;
  crash.which = fault_action::kind::crash_wave;
  crash.at = 1.0;
  expect_invalid(crash, "crash wave with neither targets nor fraction");
  crash.fraction = 1.5;
  expect_invalid(crash, "fraction above 1");
  crash.fraction = 0.5;
  crash.targets = {0};
  expect_invalid(crash, "crash wave with both targets and fraction");
  crash.targets.clear();
  crash.until = 2.0;
  expect_invalid(crash, "crash wave with a window");

  fault_action degrade;
  degrade.which = fault_action::kind::degrade;
  degrade.at = 1.0;
  degrade.degrade_class = netsim::link_class::cross;
  expect_invalid(degrade, "non-all degrade class without targets");
  degrade.degrade_class = netsim::link_class::all;
  degrade.link.drop_probability = 2.0;
  expect_invalid(degrade, "invalid degrade link model");
}

TEST(fault_schedule, validate_rejects_overlapping_partitions) {
  fault_schedule schedule;
  schedule.actions.push_back(partition_action(1.0, 5.0, {0}));
  schedule.actions.push_back(partition_action(4.0, 8.0, {1}));
  EXPECT_THROW(schedule.validate(3), std::invalid_argument);

  // Back-to-back windows are fine: the first heal dispatches before the
  // second cut at the shared instant (end events precede later begins).
  schedule.actions[1] = partition_action(5.0, 8.0, {1});
  EXPECT_NO_THROW(schedule.validate(3));
}

// --- scheduled execution ----------------------------------------------------

TEST(fault_schedule, partition_window_cuts_and_heals) {
  netsim::simulation sim{21};
  sim.add_node(std::make_unique<pinger>(1));
  auto b = std::make_unique<sink>();
  sink* pb = b.get();
  sim.add_node(std::move(b));
  netsim::link_model links;
  links.base_latency = 0.1;
  sim.set_link_model(links);
  fault_schedule schedule;
  schedule.actions.push_back(partition_action(2.5, 5.5, {0}));
  sim.set_fault_schedule(std::move(schedule));
  sim.start();
  sim.run_until(10.0);

  // Sends fire at t = 1..9, deliveries at t + 0.1; the ones landing inside
  // [2.5, 5.5) — from the sends at 3, 4, 5 — are dropped at delivery time.
  std::vector<double> expected{1.1, 2.1, 6.1, 7.1, 8.1, 9.1};
  ASSERT_EQ(pb->receive_times.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(pb->receive_times[i], expected[i]);
  }
  EXPECT_EQ(sim.stats().messages_dropped, 3U);
  EXPECT_FALSE(sim.is_partitioned());   // auto-healed
  EXPECT_TRUE(sim.has_partition_sides());  // sides persist for probes
  EXPECT_TRUE(sim.on_side_a(0));
  EXPECT_FALSE(sim.on_side_a(1));
}

TEST(fault_schedule, crash_and_restart_waves_by_targets) {
  netsim::simulation sim{22};
  auto n = std::make_unique<start_counter>();
  start_counter* p = n.get();
  sim.add_node(std::move(n));
  sim.add_node(std::make_unique<start_counter>());
  fault_schedule schedule;
  fault_action crash;
  crash.which = fault_action::kind::crash_wave;
  crash.at = 2.0;
  crash.targets = {0};
  schedule.actions.push_back(crash);
  fault_action restart;
  restart.which = fault_action::kind::restart_wave;
  restart.at = 5.0;  // empty targets + unset fraction: restart all crashed
  schedule.actions.push_back(restart);
  sim.set_fault_schedule(std::move(schedule));
  sim.start();

  sim.run_until(3.0);
  EXPECT_FALSE(sim.is_alive(0));
  EXPECT_TRUE(sim.is_alive(1));
  sim.run_until(10.0);
  EXPECT_TRUE(sim.is_alive(0));
  EXPECT_EQ(p->starts, 2);  // initial start + the restart wave
}

TEST(fault_schedule, fractional_crash_wave_is_deterministic) {
  const auto crashed_set = [](std::uint64_t seed) {
    netsim::simulation sim{seed};
    for (int i = 0; i < 50; ++i) sim.add_node(std::make_unique<start_counter>());
    fault_schedule schedule;
    fault_action wave;
    wave.which = fault_action::kind::crash_wave;
    wave.at = 1.0;
    wave.fraction = 0.5;
    schedule.actions.push_back(wave);
    sim.set_fault_schedule(std::move(schedule));
    sim.start();
    sim.run_until(2.0);
    std::vector<bool> crashed;
    for (node_id id = 0; id < 50; ++id) crashed.push_back(!sim.is_alive(id));
    return crashed;
  };
  const std::vector<bool> first = crashed_set(33);
  EXPECT_EQ(first, crashed_set(33));
  // With p = 0.5 over 50 nodes, both extremes are (2^-50)-improbable.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 50);
}

TEST(fault_schedule, degrade_window_overrides_link_class) {
  // Three nodes, targets = {0}, cross-class degrade with full loss during
  // [2.5, 5.5): 0 -> 1 crosses the set boundary (dropped in the window),
  // 2 -> 1 is intra (both outside the set; unaffected).
  netsim::simulation sim{23};
  sim.add_node(std::make_unique<pinger>(1));
  auto b = std::make_unique<sink>();
  sink* pb = b.get();
  sim.add_node(std::move(b));
  sim.add_node(std::make_unique<pinger>(1));
  netsim::link_model links;
  links.base_latency = 0.1;
  sim.set_link_model(links);
  fault_schedule schedule;
  fault_action brownout;
  brownout.which = fault_action::kind::degrade;
  brownout.at = 2.5;
  brownout.until = 5.5;
  brownout.degrade_class = netsim::link_class::cross;
  brownout.targets = {0};
  brownout.link.base_latency = 0.1;
  brownout.link.drop_probability = 1.0;
  schedule.actions.push_back(brownout);
  sim.set_fault_schedule(std::move(schedule));
  sim.start();
  sim.run_until(10.0);

  // 9 sends per pinger; node 0's sends at t = 3, 4, 5 hit the override.
  EXPECT_EQ(pb->receive_times.size(), 15U);
  EXPECT_EQ(sim.stats().messages_dropped, 3U);
}

// --- determinism and the recorder's zero cost --------------------------------

std::uint64_t scheduled_run_hash(std::uint64_t seed, double partition_at,
                                 netsim::trace_recorder* recorder) {
  netsim::simulation sim{seed};
  sim.add_node(std::make_unique<pinger>(1));
  sim.add_node(std::make_unique<sink>());
  sim.add_node(std::make_unique<pinger>(0));
  netsim::link_model links;
  links.base_latency = 0.2;
  links.jitter_mean = 0.3;
  links.drop_probability = 0.1;
  sim.set_link_model(links);
  fault_schedule schedule;
  schedule.actions.push_back(partition_action(partition_at, partition_at + 3.0, {0}));
  fault_action wave;
  wave.which = fault_action::kind::crash_wave;
  wave.at = 8.0;
  wave.fraction = 0.5;
  schedule.actions.push_back(wave);
  sim.set_fault_schedule(std::move(schedule));
  sim.set_trace_recorder(recorder);
  sim.start();
  sim.run_until(20.0);
  return sim.trace_hash();
}

TEST(fault_schedule, trace_hash_pins_the_fault_timeline) {
  EXPECT_EQ(scheduled_run_hash(5, 2.5, nullptr), scheduled_run_hash(5, 2.5, nullptr));
  EXPECT_NE(scheduled_run_hash(5, 2.5, nullptr), scheduled_run_hash(6, 2.5, nullptr));
  // Re-timing a fault changes the hash even if no message happens to care.
  EXPECT_NE(scheduled_run_hash(5, 2.5, nullptr), scheduled_run_hash(5, 2.6, nullptr));
}

TEST(fault_schedule, recorder_attachment_does_not_change_the_run) {
  netsim::trace_recorder recorder;
  EXPECT_EQ(scheduled_run_hash(5, 2.5, &recorder), scheduled_run_hash(5, 2.5, nullptr));
  EXPECT_GT(recorder.size(), 0U);

  // The recorded stream contains the scheduled fault marks.
  bool saw_partition = false, saw_heal = false, saw_crash = false;
  for (const netsim::trace_record& rec : recorder.snapshot()) {
    saw_partition |= rec.kind == netsim::trace_kind::partition;
    saw_heal |= rec.kind == netsim::trace_kind::heal;
    saw_crash |= rec.kind == netsim::trace_kind::crash;
  }
  EXPECT_TRUE(saw_partition);
  EXPECT_TRUE(saw_heal);
  EXPECT_TRUE(saw_crash);
}

TEST(trace_recorder, ring_capacity_keeps_the_most_recent_records) {
  netsim::trace_recorder ring{8};
  for (int i = 0; i < 20; ++i) {
    netsim::trace_record rec;
    rec.time = i;
    rec.kind = netsim::trace_kind::send;
    ring.append(rec);
  }
  EXPECT_EQ(ring.size(), 8U);
  EXPECT_EQ(ring.evicted(), 12U);
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 8U);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(records[i].time, 12.0 + static_cast<double>(i));
  }
}

// --- the scenario layer -----------------------------------------------------

TEST(fault_spec, registry_nemesis_scenarios_round_trip_through_text) {
  for (const char* name :
       {"gossip_partition_heal", "gossip_crash_waves", "gossip_degraded_links"}) {
    const scenario::scenario_spec spec = scenario::get_scenario(name);
    ASSERT_FALSE(spec.faults.empty()) << name;
    const scenario::scenario_spec parsed =
        scenario::parse_scenario(scenario::serialize_scenario(spec));
    EXPECT_EQ(parsed.faults, spec.faults) << name;
    EXPECT_EQ(scenario::serialize_scenario(parsed), scenario::serialize_scenario(spec))
        << name;
  }
}

TEST(fault_spec, overrides_build_and_edit_actions) {
  scenario::scenario_spec spec = scenario::get_scenario("gossip_sync_ideal");
  scenario::apply_override(spec, "faults.0.kind=\"partition\"");
  scenario::apply_override(spec, "faults.0.at=10");
  scenario::apply_override(spec, "faults.0.until=20");
  scenario::apply_override(spec, "faults.0.targets=[0, 1, 2]");
  scenario::apply_override(spec, "faults.record=true");
  ASSERT_EQ(spec.faults.actions.size(), 1U);
  EXPECT_EQ(spec.faults.actions[0].kind,
            scenario::fault_action_spec::action_kind::partition);
  EXPECT_DOUBLE_EQ(spec.faults.actions[0].at, 10.0);
  EXPECT_DOUBLE_EQ(spec.faults.actions[0].until, 20.0);
  EXPECT_EQ(spec.faults.actions[0].targets, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_TRUE(spec.faults.record);
  EXPECT_NO_THROW(scenario::validate_spec(spec));
}

TEST(fault_spec, family_is_gated_on_the_protocol_engine) {
  scenario::scenario_spec spec = scenario::get_scenario("quickstart");
  // Overrides reject the family immediately (the engine is known).
  EXPECT_THROW(scenario::apply_override(spec, "faults.record=true"),
               std::invalid_argument);
  EXPECT_THROW(scenario::apply_override(spec, "faults.0.at=5"), std::invalid_argument);

  // A spec with stranded fault fields fails validate_spec.
  scenario::scenario_spec stranded = scenario::get_scenario("gossip_partition_heal");
  stranded.engine = scenario::engine_kind::agent_based;
  try {
    scenario::validate_spec(stranded);
    FAIL() << "fault fields on a non-protocol engine must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("faults"), std::string::npos)
        << error.what();
  }
}

/// Applies `overrides` ("key=value" each) to the registry spec `base` and
/// expects validate_spec to reject the result with `needle` in the message.
void expect_rejected(std::initializer_list<const char*> overrides, const char* needle,
                     const char* base = "gossip_partition_heal") {
  scenario::scenario_spec spec = scenario::get_scenario(base);
  std::string what;
  for (const char* assignment : overrides) {
    what += assignment;
    what += ' ';
  }
  try {
    for (const char* assignment : overrides) scenario::apply_override(spec, assignment);
    scenario::validate_spec(spec);
    FAIL() << what << "should not validate";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find(needle), std::string::npos)
        << what << "raised: " << error.what();
  }
}

TEST(fault_spec, validate_names_the_offending_key) {
  expect_rejected({"faults.0.until=5"}, "faults.0.until");  // until <= at
  expect_rejected({"faults.0.fraction=0.5"}, "faults.0.fraction");  // on a partition
  expect_rejected({"faults.0.targets=[500]"}, "faults.0.targets");  // >= N
  expect_rejected({"faults.1.kind=\"crash_wave\""}, "faults.1");  // no target/fraction
  expect_rejected({"faults.0.at=-1"}, "faults.0.at");
  expect_rejected({"faults.1.kind=\"partition\"", "faults.1.at=20", "faults.1.until=30",
                   "faults.1.targets=[0]"},
                  "faults.1");  // overlaps faults.0's [10, 25)
  expect_rejected({"faults.1.kind=\"crash_wave\"", "faults.1.fraction=0.5",
                   "faults.1.until=5"},
                  "faults.1.until");  // a window on a point event
  expect_rejected({"faults.1.kind=\"restart_wave\"", "faults.1.targets=[0]",
                   "faults.1.fraction=0.5"},
                  "faults.1.fraction");  // both targets and fraction
  expect_rejected({"faults.1.kind=\"degrade\"", "faults.1.link_class=\"intra\""},
                  "faults.1.link_class");  // a link class without targets
  expect_rejected({"faults.1.kind=\"degrade\"", "faults.1.drop_probability=1.5"},
                  "faults.1.drop_probability");
  // The range checks of the params and protocol layers name their keys too.
  expect_rejected({"params.mu=2"}, "params.mu");
  expect_rejected({"protocol.base_latency=-1"}, "protocol.base_latency");
  expect_rejected({"protocol.crash_rate=2"}, "protocol.crash_rate");
  expect_rejected({"protocol.max_retries=4294967296"}, "protocol.max_retries");
  // So do the environment constructors'.
  expect_rejected({"environment.period=0"}, "environment.period", "switching-stocks");
  expect_rejected({"environment.horizon=0"}, "environment.horizon", "drifting-crossover");
  expect_rejected({"environment.end_etas=[0.3, 0.5, 2]"}, "environment.end_etas",
                  "drifting-crossover");
  expect_rejected({"environment.etas=[0.7, 0.7]"}, "environment.etas", "ef-exclusive");
}

/// validate_spec checks the schedule the engine runs — times in seconds,
/// scaled by protocol.round_interval — as well as the spec's own in rounds:
/// scaling can merge two distinct times, and either schedule may then be
/// the one that is malformed.
TEST(fault_spec, validate_checks_the_schedule_the_engine_runs) {
  // 3 and 3.0000000000000004 rounds are both 0.30000000000000004 s.
  expect_rejected({"protocol.round_interval=0.1", "faults.0.at=3",
                   "faults.0.until=3.0000000000000004"},
                  "faults.0.until");
  // In rounds the windows [1, 3.0000000000000004) and [3, 5) overlap; in
  // seconds they only touch.
  expect_rejected({"protocol.round_interval=0.1", "faults.0.at=1",
                   "faults.0.until=3.0000000000000004", "faults.1.kind=\"partition\"",
                   "faults.1.at=3", "faults.1.until=5", "faults.1.targets=[0]"},
                  "faults.1.at");

  std::vector<scenario::scenario_spec> valid;
  for (const scenario::scenario_spec& spec : scenario::all_scenarios()) {
    if (spec.name.starts_with("gossip_")) valid.push_back(spec);
  }
  ASSERT_FALSE(valid.empty());
  scenario::scenario_spec window = scenario::get_scenario("gossip_partition_heal");
  for (const char* assignment :
       {"protocol.round_interval=0.1", "faults.0.at=3", "faults.0.until=4"}) {
    scenario::apply_override(window, assignment);
  }
  valid.push_back(window);
  for (const scenario::scenario_spec& spec : valid) {
    EXPECT_NO_THROW(scenario::validate_spec(spec)) << spec.name;
    EXPECT_NO_THROW((void)scenario::make_engine(spec)()) << spec.name;
  }
}

TEST(fault_spec, unknown_field_suggests_the_nearest_key) {
  scenario::scenario_spec spec = scenario::get_scenario("gossip_partition_heal");
  try {
    scenario::apply_override(spec, "faults.0.fractoin=0.5");
    FAIL() << "typo should be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("fraction"), std::string::npos)
        << error.what();
  }
}

// --- scheduled runs under the harness ---------------------------------------

TEST(fault_spec, scheduled_runs_are_bit_identical_across_threads) {
  const scenario::scenario_spec spec = scenario::get_scenario("gossip_partition_heal");
  core::run_config config;
  config.horizon = 40;
  config.replications = 3;
  config.seed = 11;

  const auto fingerprint = [&](unsigned threads) {
    core::run_config c = config;
    c.threads = threads;
    std::string out;
    for (const auto& probe : scenario::run_probes(spec, c)) {
      const core::probe_report report = probe->report();
      for (const auto& scalar : report.scalars) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s=%.17g;", scalar.key.c_str(), scalar.value);
        out += buf;
      }
    }
    return out;
  };
  EXPECT_EQ(fingerprint(4), fingerprint(1));
}

}  // namespace
