// The offline protocol-invariant checker (analysis/trace_check.h):
//   * a clean trace from a real fault-scheduled protocol run passes;
//   * every invariant has a minimal synthetic fixture that violates it
//     exactly where the fixture says it does;
//   * ring-evicted traces skip the prefix-dependent invariants instead of
//     reporting nonsense;
//   * the JSONL form round-trips, and the strict reader rejects malformed
//     input naming the line, including an integer outside the type its
//     field is written at;
//   * the checker sizes its state by the records, not by the header.

#include "analysis/trace_check.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/params.h"
#include "netsim/simulation.h"
#include "netsim/trace.h"
#include "protocol/protocol_engine.h"
#include "support/rng.h"

namespace {

using namespace sgl;
using netsim::trace_kind;
using netsim::trace_record;

trace_record rec(double t, trace_kind kind, std::uint32_t node, std::uint32_t peer = 0,
                 std::int32_t detail = 0, std::int64_t a = 0, std::int64_t b = 0) {
  return {.time = t, .kind = kind, .node = node, .peer = peer, .detail = detail,
          .a = a, .b = b};
}

analysis::trace_metadata small_meta() {
  analysis::trace_metadata meta;
  meta.num_nodes = 4;
  meta.num_options = 3;
  meta.max_retries = 1;
  meta.rounds = 2;
  meta.seed = 5;
  return meta;
}

/// A post of all 3 options for round `r` (so adoptions have a legal range).
trace_record post(double t, std::int64_t round) {
  return rec(t, trace_kind::post, 0, 0, 3, round, 0b111);
}

// --- a real recorded run is clean -------------------------------------------

TEST(trace_check, clean_fault_scheduled_protocol_run_passes) {
  protocol::engine_config config;
  config.dynamics = core::theorem_params(2, 0.65);
  config.record_trace = true;
  netsim::fault_action cut;
  cut.which = netsim::fault_action::kind::partition;
  cut.at = 5.0;
  cut.until = 12.0;
  for (netsim::node_id id = 0; id < 25; ++id) cut.targets.push_back(id);
  config.faults.actions.push_back(cut);
  netsim::fault_action wave;
  wave.which = netsim::fault_action::kind::crash_wave;
  wave.at = 14.0;
  wave.fraction = 0.3;
  config.faults.actions.push_back(wave);

  protocol::protocol_engine engine{config, 50};
  rng reward_gen = rng::from_stream(3, 0);
  rng process_gen = rng::from_stream(3, 1);
  std::vector<std::uint8_t> rewards(2);
  const std::uint64_t rounds = 20;
  for (std::uint64_t t = 1; t <= rounds; ++t) {
    rewards[0] = reward_gen.next_bernoulli(0.85) ? 1 : 0;
    rewards[1] = reward_gen.next_bernoulli(0.35) ? 1 : 0;
    engine.step(rewards, process_gen);
  }
  ASSERT_NE(engine.recorder(), nullptr);

  analysis::trace_metadata meta;
  meta.num_nodes = 50;
  meta.num_options = 2;
  meta.max_retries = static_cast<std::uint32_t>(config.protocol.max_retries);
  meta.round_interval = config.protocol.round_interval;
  meta.rounds = rounds;
  meta.seed = 3;
  meta.evicted = engine.recorder()->evicted();

  const auto records = engine.recorder()->snapshot();
  ASSERT_GT(records.size(), 0U);
  const analysis::trace_check_result result = analysis::check_trace(meta, records);
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().invariant + ": " +
                                         result.violations.front().detail);
  EXPECT_EQ(result.records_checked, records.size());
  EXPECT_TRUE(result.skipped.empty());
}

// --- one fixture per invariant ----------------------------------------------

TEST(trace_check, flags_delivery_to_a_crashed_node) {
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(0.1, trace_kind::send, 0, 1, 1),
      rec(0.2, trace_kind::crash, 1),
      rec(0.3, trace_kind::deliver, 1, 0, 1),
  };
  const auto result = analysis::check_trace(small_meta(), records);
  ASSERT_EQ(result.violations.size(), 1U);
  EXPECT_EQ(result.violations[0].invariant, "deliver_to_crashed");
  EXPECT_EQ(result.violations[0].node, 1U);
  EXPECT_EQ(result.violations[0].record_index, 3U);
  EXPECT_DOUBLE_EQ(result.violations[0].time, 0.3);
}

TEST(trace_check, flags_a_delivery_across_the_cut) {
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(0.1, trace_kind::send, 0, 1, 1),
      rec(0.2, trace_kind::partition, 0),  // side A = {0}
      rec(0.3, trace_kind::deliver, 1, 0, 1),
      rec(0.4, trace_kind::heal, 0),
  };
  const auto result = analysis::check_trace(small_meta(), records);
  ASSERT_EQ(result.violations.size(), 1U);
  EXPECT_EQ(result.violations[0].invariant, "cross_partition_deliver");
  EXPECT_EQ(result.violations[0].record_index, 3U);
}

TEST(trace_check, allows_intra_side_delivery_and_post_heal_delivery) {
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(0.1, trace_kind::send, 0, 1, 1),
      rec(0.15, trace_kind::send, 2, 3, 1),
      rec(0.2, trace_kind::partition, 0),
      rec(0.21, trace_kind::partition, 1),  // side A = {0, 1}
      rec(0.3, trace_kind::deliver, 1, 0, 1),  // within side A
      rec(0.4, trace_kind::heal, 0),
      rec(0.5, trace_kind::deliver, 3, 2, 1),  // after the heal
  };
  EXPECT_TRUE(analysis::check_trace(small_meta(), records).ok());
}

TEST(trace_check, flags_adoption_before_any_post_and_outside_the_range) {
  const std::vector<trace_record> early{
      rec(0.5, trace_kind::adopt, 2, 0, 0, /*option*/ 1, /*round*/ 1),
  };
  auto result = analysis::check_trace(small_meta(), early);
  ASSERT_EQ(result.violations.size(), 1U);
  EXPECT_EQ(result.violations[0].invariant, "adopt_posted");

  const std::vector<trace_record> outside{
      post(0.0, 1),
      rec(0.5, trace_kind::adopt, 2, 0, 0, /*option*/ 5, /*round*/ 1),
  };
  result = analysis::check_trace(small_meta(), outside);
  ASSERT_EQ(result.violations.size(), 1U);
  EXPECT_EQ(result.violations[0].invariant, "adopt_posted");
  EXPECT_EQ(result.violations[0].record_index, 1U);
}

TEST(trace_check, flags_a_commit_round_going_backwards) {
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(1.0, trace_kind::commit, 2, 0, 0, 0, /*round*/ 5),
      rec(2.0, trace_kind::adopt, 2, 0, 0, 1, /*round*/ 3),
  };
  const auto result = analysis::check_trace(small_meta(), records);
  ASSERT_EQ(result.violations.size(), 1U);
  EXPECT_EQ(result.violations[0].invariant, "commit_monotone");
  EXPECT_EQ(result.violations[0].node, 2U);
  EXPECT_EQ(result.violations[0].record_index, 2U);
}

TEST(trace_check, crash_resets_the_commit_baseline) {
  // A restart rejoins uncommitted, so an earlier round after a crash is
  // legitimate — the §2.1 state is one integer and it was wiped.
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(1.0, trace_kind::commit, 2, 0, 0, 0, 5),
      rec(2.0, trace_kind::crash, 2),
      rec(3.0, trace_kind::restart, 2),
      rec(4.0, trace_kind::commit, 2, 0, 0, 1, 1),
  };
  EXPECT_TRUE(analysis::check_trace(small_meta(), records).ok());
}

TEST(trace_check, flags_a_blown_retry_budget) {
  // meta: rounds = 2, max_retries = 1, no restarts — budget is
  // (2 + 1) * (1 + 1) = 6 sample requests per node.
  std::vector<trace_record> records{post(0.0, 1)};
  for (int i = 0; i < 7; ++i) {
    records.push_back(rec(0.1 * (i + 1), trace_kind::send, 0, 1,
                          analysis::k_sample_request_kind));
  }
  const auto result = analysis::check_trace(small_meta(), records);
  ASSERT_EQ(result.violations.size(), 1U);
  EXPECT_EQ(result.violations[0].invariant, "retry_budget");
  EXPECT_EQ(result.violations[0].node, 0U);

  // One fewer request fits the budget.
  records.pop_back();
  EXPECT_TRUE(analysis::check_trace(small_meta(), records).ok());
}

TEST(trace_check, restarts_widen_the_retry_budget) {
  std::vector<trace_record> records{post(0.0, 1),
                                    rec(0.05, trace_kind::crash, 0),
                                    rec(0.06, trace_kind::restart, 0)};
  for (int i = 0; i < 7; ++i) {
    records.push_back(rec(0.1 * (i + 1), trace_kind::send, 0, 1,
                          analysis::k_sample_request_kind));
  }
  // 7 requests blow the no-restart budget (6) but fit the one-restart
  // budget ((2 + 1 + 1) * 2 = 8).
  EXPECT_TRUE(analysis::check_trace(small_meta(), records).ok());
}

TEST(trace_check, flags_more_deliveries_than_sends) {
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(0.1, trace_kind::send, 0, 1, 1),
      rec(0.2, trace_kind::deliver, 1, 0, 1),
      rec(0.3, trace_kind::deliver, 1, 0, 1),  // duplicated delivery
  };
  const auto result = analysis::check_trace(small_meta(), records);
  // Both the global ledger and the 0 -> 1 link report it.
  ASSERT_EQ(result.violations.size(), 2U);
  EXPECT_EQ(result.violations[0].invariant, "conservation");
  EXPECT_EQ(result.violations[1].invariant, "conservation");
}

TEST(trace_check, in_flight_messages_are_not_a_conservation_violation) {
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(0.1, trace_kind::send, 0, 1, 1),  // never delivered: in flight
  };
  EXPECT_TRUE(analysis::check_trace(small_meta(), records).ok());
}

TEST(trace_check, ring_evicted_traces_skip_prefix_dependent_invariants) {
  analysis::trace_metadata meta = small_meta();
  meta.evicted = 10;
  // Would violate adopt_posted on a full trace; on an evicted one the post
  // may simply have been lost.
  const std::vector<trace_record> records{
      rec(0.5, trace_kind::adopt, 2, 0, 0, 1, 1),
      rec(0.6, trace_kind::deliver, 1, 0, 1),  // sent before the ring window
  };
  const auto result = analysis::check_trace(meta, records);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.skipped,
            (std::vector<std::string>{"adopt_posted", "retry_budget", "conservation"}));

  // The stateful invariants still run: a crash inside the window is seen.
  const std::vector<trace_record> crashed{
      rec(0.1, trace_kind::crash, 1),
      rec(0.2, trace_kind::deliver, 1, 0, 1),
  };
  const auto still = analysis::check_trace(meta, crashed);
  ASSERT_EQ(still.violations.size(), 1U);
  EXPECT_EQ(still.violations[0].invariant, "deliver_to_crashed");
}

// --- JSONL round-trip and the strict reader ----------------------------------

TEST(trace_io, jsonl_round_trips_metadata_and_records) {
  analysis::trace_metadata meta = small_meta();
  meta.round_interval = 0.25;
  meta.evicted = 3;
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(0.05171118056444312, trace_kind::send, 156, 85, 1, -2, 7),
      rec(1.5, trace_kind::drop, 1, 0, 0, /*reason*/ 2),
      rec(2.0, trace_kind::adopt, 3, 0, 0, 1, 2),
  };
  std::stringstream stream;
  analysis::write_trace(stream, meta, records);

  const analysis::parsed_trace parsed = analysis::read_trace(stream);
  EXPECT_EQ(parsed.meta, meta);
  ASSERT_EQ(parsed.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed.records[i], records[i]) << "record " << i;
  }
}

TEST(trace_io, reader_rejects_malformed_input_naming_the_line) {
  const auto expect_error = [](const std::string& text, const char* needle) {
    std::istringstream stream{text};
    try {
      (void)analysis::read_trace(stream);
      FAIL() << "expected rejection of: " << text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string{error.what()}.find(needle), std::string::npos)
          << "for input: " << text << "\n  raised: " << error.what();
    }
  };
  const std::string header =
      R"({"sociolearn_trace":1,"num_nodes":4,"num_options":3,"max_retries":1,)"
      R"("round_interval":1,"rounds":2,"seed":5,"evicted":0})";

  expect_error("", "empty input");
  expect_error(R"({"num_nodes":4})", "sociolearn_trace");
  expect_error(header + "\n" + R"({"t":0,"kind":"warp","node":0})", "unknown record kind");
  expect_error(header + "\n" + R"({"t":0,"kind":"send","bogus":1})", "unknown record key");
  expect_error(header + "\n" + R"({"t":"zero","kind":"send"})", "unexpected string");
  expect_error(header + "\n" + R"({"t":x,"kind":"send"})", "non-numeric");
  expect_error(header + "\n" + R"({"t":0,"kind":"send"} trailing)", "line 2");
}

TEST(trace_io, reader_refuses_integers_outside_the_written_type) {
  // Every field is read at the type write_trace writes it, so a wider
  // value is refused rather than narrowed: read as uint32, node 4294967301
  // would be node 5, and this trace would report a delivery to a crashed
  // node 5.
  const auto expect_refused = [](const std::string& text, const char* line,
                                 const char* key) {
    std::istringstream stream{text};
    try {
      (void)analysis::read_trace(stream);
      FAIL() << "expected rejection of: " << text;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(line), std::string::npos) << "raised: " << what;
      EXPECT_NE(what.find(std::string{"key '"} + key + "'"), std::string::npos)
          << "raised: " << what;
      EXPECT_NE(what.find("is not an integer in"), std::string::npos) << "raised: " << what;
    }
  };
  const auto header = [](const std::string& max_retries, const std::string& seed) {
    return R"({"sociolearn_trace":1,"num_nodes":4,"num_options":3,"max_retries":)" +
           max_retries + R"(,"round_interval":1,"rounds":2,"seed":)" + seed +
           R"(,"evicted":0})" + "\n";
  };
  const auto record = [](const char* kind, const std::string& node,
                         const std::string& peer, const std::string& detail) {
    return R"({"t":0.5,"kind":")" + std::string{kind} + R"(","node":)" + node +
           R"(,"peer":)" + peer + R"(,"detail":)" + detail + R"(,"a":0,"b":0})" + "\n";
  };
  const std::string ok = header("1", "5");

  expect_refused(ok + record("crash", "4294967301", "0", "0") +
                     record("deliver", "5", "0", "1"),
                 "line 2", "node");
  expect_refused(ok + record("send", "0", "4294967296", "1"), "line 2", "peer");
  expect_refused(ok + record("send", "0", "-1", "1"), "line 2", "peer");
  expect_refused(ok + record("send", "0", "1", "2147483648"), "line 2", "detail");
  expect_refused(ok + record("send", "0", "1", "-2147483649"), "line 2", "detail");
  expect_refused(header("-1", "5"), "line 1", "max_retries");
  expect_refused(header("4294967296", "5"), "line 1", "max_retries");
  expect_refused(header("1", "-1"), "line 1", "seed");
  expect_refused(header("1", "18446744073709551616"), "line 1", "seed");
}

TEST(trace_io, header_seed_round_trips_over_the_full_uint64_range) {
  // `scenario --seed -1` runs seed 2^64 - 1 and writes it as such; the
  // trace it writes must read back and check clean.
  analysis::trace_metadata meta = small_meta();
  meta.seed = UINT64_MAX;
  const std::vector<trace_record> records{
      post(0.0, 1),
      rec(0.1, trace_kind::send, 0, 1, 1),
      rec(0.3, trace_kind::deliver, 1, 0, 1),
  };
  std::stringstream stream;
  analysis::write_trace(stream, meta, records);
  ASSERT_NE(stream.str().find(R"("seed":18446744073709551615)"), std::string::npos);

  const analysis::parsed_trace parsed = analysis::read_trace(stream);
  EXPECT_EQ(parsed.meta, meta);
  EXPECT_TRUE(analysis::check_trace(parsed.meta, parsed.records).ok());
}

TEST(trace_io, header_population_does_not_size_the_check) {
  // The checker keeps state only for the nodes records name: a header that
  // claims 2^62 nodes must not make it allocate per claimed node.
  std::istringstream stream{
      R"({"sociolearn_trace":1,"num_nodes":4611686018427387904,"num_options":2,)"
      R"("max_retries":1,"round_interval":1,"rounds":2,"seed":5,"evicted":0})"
      "\n"
      R"({"t":0,"kind":"post","node":0,"peer":0,"detail":2,"a":0,"b":0})"
      "\n"
      R"({"t":0.5,"kind":"send","node":7,"peer":9,"detail":1,"a":0,"b":0})"
      "\n"};
  const analysis::parsed_trace parsed = analysis::read_trace(stream);
  ASSERT_EQ(parsed.meta.num_nodes, std::uint64_t{1} << 62);
  const analysis::trace_check_result result = analysis::check_trace(parsed.meta, parsed.records);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.records_checked, 2U);
}

TEST(trace_io, stdout_trace_conflict_fires_only_for_dash_plus_check) {
  // `--trace-out -` and `--check-trace` both write stdout; the CLI must
  // refuse the combination instead of interleaving the two documents.
  const std::string conflict = analysis::stdout_trace_conflict("-", true);
  ASSERT_FALSE(conflict.empty());
  EXPECT_NE(conflict.find("stdout"), std::string::npos);
  EXPECT_NE(conflict.find("interleave"), std::string::npos);

  // Every working spelling stays allowed.
  EXPECT_TRUE(analysis::stdout_trace_conflict("-", false).empty());
  EXPECT_TRUE(analysis::stdout_trace_conflict("trace.jsonl", true).empty());
  EXPECT_TRUE(analysis::stdout_trace_conflict("trace.jsonl", false).empty());
  EXPECT_TRUE(analysis::stdout_trace_conflict("", true).empty())
      << "--check-trace alone records to no file and reports to stdout";
}

}  // namespace
