// Tests for the inbound JSON reader (support/json_parse.h): values,
// escapes, exact 64-bit integers, checked accessors, and the error paths
// the service wire protocol depends on.

#include "support/json_parse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "property/generators.h"
#include "support/json.h"

namespace sgl {
namespace {

using testgen::emit_node;
using testgen::expect_node_equal;
using testgen::gen_node;
using testgen::prng;
using testgen::random_node;

TEST(json_parse, scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool("x"));
  EXPECT_FALSE(parse_json("false").as_bool("x"));
  EXPECT_EQ(parse_json("\"hi\"").as_string("x"), "hi");
  EXPECT_DOUBLE_EQ(parse_json("-2.5e2").as_double("x"), -250.0);
  EXPECT_EQ(parse_json("42").as_int64("x"), 42);
  EXPECT_TRUE(parse_json("  17 ").is_number()) << "surrounding whitespace";
}

TEST(json_parse, uint64_round_trips_past_double_precision) {
  // 2^63 + 1 is not representable as a double; the raw-token reparse in
  // as_uint64 must still return it exactly (seeds are uint64).
  const std::uint64_t big = (1ULL << 63) + 1;
  const json_value value = parse_json(std::to_string(big));
  EXPECT_EQ(value.as_uint64("seed"), big);
  EXPECT_EQ(parse_json("9223372036854775807").as_int64("x"),
            std::numeric_limits<std::int64_t>::max());
}

TEST(json_parse, objects_arrays_and_lookup) {
  const json_value doc = parse_json(
      R"({"op":"submit","grid":[1,2,3],"nested":{"deep":true},"op":"dup"})");
  ASSERT_TRUE(doc.is_object());
  // Duplicate keys: find() must agree with mainstream parsers (last key
  // wins), so a hostile client can't hide a second value from validation.
  EXPECT_EQ(doc.find("op")->as_string("op"), "dup") << "last key wins";
  ASSERT_EQ(doc.members.size(), 4U) << "duplicates stay visible in members";
  EXPECT_EQ(doc.members.front().second.as_string("op"), "submit");
  ASSERT_NE(doc.find("grid"), nullptr);
  ASSERT_EQ(doc.find("grid")->items.size(), 3U);
  EXPECT_EQ(doc.find("grid")->items[1].as_int64("x"), 2);
  EXPECT_TRUE(doc.find("nested")->find("deep")->as_bool("deep"));
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(json_parse, escapes_round_trip_through_json_escape) {
  const std::string nasty = "line\nbreak \"quoted\" back\\slash \ttab \x01 unicode: é";
  const std::string doc = "\"" + json_escape(nasty) + "\"";
  EXPECT_EQ(parse_json(doc).as_string("x"), nasty);
  // Explicit \u escapes, including a surrogate pair.
  EXPECT_EQ(parse_json(R"("Aé😀")").as_string("x"),
            "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(json_parse, malformed_documents_throw_with_offsets) {
  EXPECT_THROW((void)parse_json(""), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"a\":1,}"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("[1 2]"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("\"unterminated"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("01"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("nul"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{} trailing"), std::invalid_argument);
  // Nesting bomb: deeper than the 64-level guard.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)parse_json(deep), std::invalid_argument);
}

TEST(json_parse, depth_limit_boundary) {
  // parse_value(depth) starts at 0 and rejects depth > 64, so 65 nested
  // brackets are the deepest legal document and 66 must throw.  The limit
  // exists because the daemon parses untrusted socket bytes with a
  // recursive-descent parser — unbounded nesting would be stack exhaustion
  // on demand.
  const auto nested = [](std::size_t n) {
    return std::string(n, '[') + std::string(n, ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(65)));
  EXPECT_THROW((void)parse_json(nested(66)), std::invalid_argument);
}

TEST(json_parse, checked_accessors_name_the_field) {
  const json_value doc = parse_json(R"({"job":"not a number","neg":-1})");
  try {
    (void)doc.find("job")->as_uint64("job");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("job"), std::string::npos);
  }
  EXPECT_THROW((void)doc.find("neg")->as_uint64("neg"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("2.5").as_int64("x"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("1").as_string("x"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("\"s\"").as_bool("x"), std::invalid_argument);
}

TEST(json_parse, number_reader_takes_one_whole_json_number) {
  // The reader every number read from text goes through: one JSON number
  // token, correctly rounded, nothing else.
  EXPECT_EQ(parse_json_number("0.006711454669543919"), 0.006711454669543919);
  EXPECT_EQ(parse_json_number("1E+2"), 100.0);
  EXPECT_EQ(parse_json_number("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  const std::optional<double> negative_zero = parse_json_number("-0");
  ASSERT_TRUE(negative_zero.has_value());
  EXPECT_TRUE(*negative_zero == 0.0 && std::signbit(*negative_zero));
  for (const char* bad : {"0x10", "+1", ".5", "1.", "01", "-", "1e", "1e+", "nan", "inf",
                          "-inf", "1e999", "1e-400", " 1", "1 ", "", "1,", "0.5.5"}) {
    EXPECT_FALSE(parse_json_number(bad).has_value()) << "'" << bad << "'";
  }
  // A document number past double range is refused the same way.
  EXPECT_THROW((void)parse_json("[1e999]"), std::invalid_argument);
}

TEST(json_parse, one_exact_integer_rule_at_32_and_64_bits) {
  // A plain decimal must be exact in T's range.
  EXPECT_EQ(parse_json_integer<std::int32_t>("2147483647"), INT32_MAX);
  EXPECT_EQ(parse_json_integer<std::int32_t>("-2147483648"), INT32_MIN);
  EXPECT_FALSE(parse_json_integer<std::int32_t>("2147483648"));
  EXPECT_FALSE(parse_json_integer<std::int32_t>("-2147483649"));
  EXPECT_EQ(parse_json_integer<std::uint32_t>("4294967295"), UINT32_MAX);
  EXPECT_FALSE(parse_json_integer<std::uint32_t>("4294967296"));
  EXPECT_FALSE(parse_json_integer<std::uint32_t>("-1"));
  EXPECT_EQ(parse_json_integer<std::uint32_t>("-0"), 0U);
  EXPECT_EQ(parse_json_integer<std::int64_t>("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(parse_json_integer<std::int64_t>("9223372036854775808"));
  EXPECT_EQ(parse_json_integer<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_json_integer<std::uint64_t>("18446744073709551616"));
  EXPECT_EQ(parse_json_integer<std::uint64_t>("9007199254740993"), (1ULL << 53) + 1);

  // A fraction or an exponent: integral and at most 2^53, then T's range.
  EXPECT_EQ(parse_json_integer<std::uint64_t>("1e5"), 100000U);
  EXPECT_EQ(parse_json_integer<std::int32_t>("-2.0"), -2);
  EXPECT_EQ(parse_json_integer<std::uint64_t>("9.007199254740992e15"), 1ULL << 53);
  EXPECT_EQ(parse_json_integer<std::int64_t>("-9.007199254740992e15"), -(1LL << 53));
  EXPECT_FALSE(parse_json_integer<std::uint64_t>("9.007199254740994e15"));  // 2^53 + 2
  EXPECT_FALSE(parse_json_integer<std::uint64_t>("1e19"));
  EXPECT_EQ(parse_json_integer<std::uint32_t>("4.294967295e9"), UINT32_MAX);
  EXPECT_FALSE(parse_json_integer<std::uint32_t>("4.294967296e9"));
  EXPECT_FALSE(parse_json_integer<std::int32_t>("3e9"));
  EXPECT_FALSE(parse_json_integer<std::uint32_t>("-1e0"));
  EXPECT_FALSE(parse_json_integer<std::uint64_t>("2.5"));
  for (const char* bad : {"0x10", "+1", ".5", "1.", "01", "nan", "inf", "1e999", " 1", ""}) {
    EXPECT_FALSE(parse_json_integer<std::int64_t>(bad)) << "'" << bad << "'";
    EXPECT_FALSE(parse_json_integer<std::uint32_t>(bad)) << "'" << bad << "'";
  }

  // A parsed value's accessors apply the same rule.
  EXPECT_EQ(parse_json("1e5").as_uint64("x"), 100000U);
  EXPECT_EQ(parse_json("-0").as_uint64("x"), 0U);
  EXPECT_EQ(parse_json("4294967295").integer<std::uint32_t>(), UINT32_MAX);
  EXPECT_FALSE(parse_json("4294967296").integer<std::uint32_t>());
  EXPECT_FALSE(parse_json("\"1\"").integer<std::int64_t>());
  EXPECT_THROW((void)parse_json("9.007199254740994e15").as_int64("x"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property-based round-trip: seeded random JSON documents emitted through
// the writer (support/json) and read back through this parser must be
// value-exact.  The generators (splitmix64 prng, gen_node, emit_node,
// expect_node_equal) live in the shared seeded-generator library behind the
// whole property tier, tests/property/generators.h — a failure reproduces
// from the seed printed in the assertion message alone.

TEST(json_parse, property_random_documents_round_trip_exactly) {
  constexpr std::uint64_t k_base_seed = 0x5eed0f'20260809ULL;
  constexpr int k_documents = 300;
  for (int i = 0; i < k_documents; ++i) {
    const std::uint64_t seed = k_base_seed + static_cast<std::uint64_t>(i);
    prng rng{seed};
    const gen_node document = random_node(rng, 0);
    // Alternate compact and indented output: the parser must be
    // whitespace-blind, and the writer's indentation must never change a
    // value.
    std::ostringstream out;
    json_writer json{out, /*indent=*/i % 2 == 0 ? 0 : 2};
    emit_node(document, json);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + out.str());
    expect_node_equal(document, parse_json(out.str()), "$");
  }
}

}  // namespace
}  // namespace sgl
