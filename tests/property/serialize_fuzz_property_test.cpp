// Bounded in-test fuzzing of the scenario text-format surfaces —
// parse_scenario, apply_override, parse_sweep_axis — with seeded hostile
// inputs.  The contract under test is total-function behaviour: every
// input either parses or throws std::invalid_argument; nothing crashes,
// hangs, or throws anything else.  (The deep offline run of this same idea
// — 300k iterations under ASan/UBSan — found the non-finite sweep-range
// hang pinned as a named regression in tests/serialize_test.cpp; this
// suite keeps the door shut at a few thousand iterations per CI run.)
// The JSONL trace reader gets the same treatment with its own contract:
// return, or throw std::runtime_error starting "trace".

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/trace_check.h"
#include "netsim/trace.h"
#include "property/generators.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"

namespace {

using namespace sgl;

/// Hostile building blocks: real keys and values from the format next to
/// malformed numbers, non-finite spellings, quoting/bracket damage, comment
/// markers, and sweep syntax.
const std::vector<std::string>& vocabulary() {
  static const std::vector<std::string> pieces = {
      "params.beta",  "params.num_options", "engine",       "kernel",
      "num_agents",   "topology.family",    "groups.0.size", "groups.3.alpha",
      "agent_rules.0.beta", "faults.0.kind", "faults.0.targets", "probes",
      "environment.etas", "start", "protocol.drop_probability",
      "=", " = ", ":", ",", ".", "#", "\n", " ", "\"", "[", "]", "(", ")",
      "0", "1", "-1", "0.5", "1e9", "1e999", "-1e999", "nan", "inf", "-inf",
      "NaN", "Infinity", "0x10", "1..2", "1:2:0", "nan:1:1", "0:1:0.1",
      "true", "false", "none", "ring", "grid", "aggregate", "protocol",
      "auto", "scalar", "simd", "regret", "hitting_time(eps=0.3)",
      "\"unterminated", "é", "\x01", "partition", "18446744073709551616",
  };
  return pieces;
}

std::string random_text(testgen::prng& rng, std::size_t max_pieces) {
  std::string out;
  const std::size_t count = rng.below(max_pieces + 1);
  for (std::size_t i = 0; i < count; ++i) {
    out += rng.pick(vocabulary());
  }
  return out;
}

/// Mutates valid writer output: splice tokens of `pieces` into random
/// positions, erase short spans, overwrite single bytes.
std::string mutate_serialized(testgen::prng& rng, std::string text,
                              const std::vector<std::string>& pieces = vocabulary()) {
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t i = 0; i < edits; ++i) {
    if (text.empty()) break;
    const std::size_t at = rng.below(text.size());
    switch (rng.below(3)) {
      case 0: text.insert(at, rng.pick(pieces)); break;
      case 1: text.erase(at, rng.below(8) + 1); break;
      default: text[at] = static_cast<char>(rng.below(256)); break;
    }
  }
  return text;
}

/// The fuzz oracle: `operation` must return or throw std::invalid_argument.
/// Any other escape (std::bad_alloc aside, which the small inputs cannot
/// trigger) fails with the offending input attached.
template <typename Operation>
void expect_total(const std::string& input, const Operation& operation) {
  try {
    operation();
  } catch (const std::invalid_argument&) {
    // the documented rejection path
  } catch (const std::exception& error) {
    FAIL() << "non-invalid_argument exception '" << error.what()
           << "' escaped on input:\n"
           << input;
  }
}

TEST(serialize_fuzz, parse_scenario_is_total_on_random_token_soup) {
  const testgen::property_plan plan = testgen::property_run_plan(1500);
  for (std::uint64_t i = 0; i < plan.iterations; ++i) {
    testgen::prng rng{plan.seed + 0x9e37ULL * (i + 1)};
    const std::string input = random_text(rng, 40);
    SCOPED_TRACE("iteration " + std::to_string(i) + " (seed " +
                 std::to_string(plan.seed) + ")");
    expect_total(input, [&] { (void)scenario::parse_scenario(input); });
  }
}

TEST(serialize_fuzz, parse_scenario_is_total_on_mutated_valid_specs) {
  const testgen::property_plan plan = testgen::property_run_plan(600);
  for (std::uint64_t i = 0; i < plan.iterations; ++i) {
    testgen::prng rng{plan.seed + 0xa5a5ULL * (i + 1)};
    const std::string input =
        mutate_serialized(rng, scenario::serialize_scenario(
                                   testgen::draw_scenario(plan.seed, i)));
    SCOPED_TRACE("iteration " + std::to_string(i) + " (seed " +
                 std::to_string(plan.seed) + ")");
    expect_total(input, [&] {
      const scenario::scenario_spec spec = scenario::parse_scenario(input);
      // A spec that survives parsing must also survive validation without
      // crashing — validate_spec_error is the property tier's load-bearing
      // predicate.
      (void)scenario::validate_spec_error(spec);
    });
  }
}

TEST(serialize_fuzz, apply_override_is_total) {
  const testgen::property_plan plan = testgen::property_run_plan(1500);
  for (std::uint64_t i = 0; i < plan.iterations; ++i) {
    testgen::prng rng{plan.seed + 0xc3c3ULL * (i + 1)};
    scenario::scenario_spec spec = testgen::corner_specs()[rng.below(
        testgen::corner_specs().size())];
    const std::string assignment = random_text(rng, 6);
    SCOPED_TRACE("iteration " + std::to_string(i) + " (seed " +
                 std::to_string(plan.seed) + ")");
    expect_total(assignment,
                 [&] { scenario::apply_override(spec, assignment); });
  }
}

TEST(serialize_fuzz, parse_sweep_axis_is_total) {
  const testgen::property_plan plan = testgen::property_run_plan(1500);
  for (std::uint64_t i = 0; i < plan.iterations; ++i) {
    testgen::prng rng{plan.seed + 0xe1e1ULL * (i + 1)};
    const std::string axis = random_text(rng, 8);
    SCOPED_TRACE("iteration " + std::to_string(i) + " (seed " +
                 std::to_string(plan.seed) + ")");
    expect_total(axis, [&] {
      const scenario::sweep_axis parsed = scenario::parse_sweep_axis(axis);
      // Grids are bounded by contract (<= 10000 points per axis), so a
      // successful parse yields a modest value list, never a hang.
      EXPECT_LE(parsed.values.size(), 10000U);
    });
  }
}

/// A write_trace document with a random header and 0..11 random records.
std::string random_trace(testgen::prng& rng) {
  analysis::trace_metadata meta;
  meta.num_nodes = rng.below(8);
  meta.num_options = rng.below(4);
  meta.max_retries = static_cast<std::uint32_t>(rng.below(3));
  meta.round_interval = testgen::random_double(rng);
  meta.rounds = rng.below(50);
  meta.seed = rng.next();
  meta.evicted = rng.below(2);
  std::vector<netsim::trace_record> records(rng.below(12));
  for (netsim::trace_record& rec : records) {
    rec.time = testgen::random_double(rng);
    rec.kind = static_cast<netsim::trace_kind>(rng.below(12));
    rec.node = static_cast<std::uint32_t>(rng.below(8));
    rec.peer = static_cast<std::uint32_t>(rng.next());
    rec.detail = static_cast<std::int32_t>(rng.next());
    rec.a = static_cast<std::int64_t>(rng.next());
    rec.b = static_cast<std::int64_t>(rng.below(9)) - 4;
  }
  std::ostringstream out;
  analysis::write_trace(out, meta, records);
  return out.str();
}

/// JSON and trace fragments to splice into a trace: structure, keys, kind
/// names, out-of-range and non-JSON numbers, escapes and bad surrogates.
const std::vector<std::string>& trace_vocabulary() {
  static const std::vector<std::string> pieces = {
      "{", "}", "[", "]", ":", ",", "\"", "\n", " ", "\t", "\r", "null", "true",
      "\"t\":", "\"kind\":", "\"node\":", "\"peer\":", "\"detail\":",
      "\"rounds\":", "\"seed\":", "\"sociolearn_trace\":1,", "\"send\"",
      "\"deliver\"", "\"crash\"", "\"warp\"", "-1", "0", "1e5", "1.5", ".5",
      "nan", "inf", "0x10", "4294967296", "18446744073709551616", "1e999",
      "\\u0041", "\\ud800", "\\ud83d\\ude00", "\\", "\x01", "[[[[[[[[",
  };
  return pieces;
}

TEST(trace_fuzz, read_trace_is_total_on_mutated_traces) {
  const testgen::property_plan plan = testgen::property_run_plan(1500);
  for (std::uint64_t i = 0; i < plan.iterations; ++i) {
    testgen::prng rng{plan.seed + 0x7a7aULL * (i + 1)};
    const std::string input = mutate_serialized(rng, random_trace(rng), trace_vocabulary());
    SCOPED_TRACE("iteration " + std::to_string(i) + " (seed " +
                 std::to_string(plan.seed) + ")");
    try {
      std::istringstream stream{input};
      (void)analysis::read_trace(stream);
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string{error.what()}.rfind("trace", 0), 0U)
          << "rejection '" << error.what() << "' does not start with 'trace' on input:\n"
          << input;
    } catch (const std::exception& error) {
      FAIL() << "non-runtime_error exception '" << error.what() << "' escaped on input:\n"
             << input;
    }
  }
}

}  // namespace
