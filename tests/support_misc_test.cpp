// Tests for table/CSV formatting, flag parsing, and the parallel runners.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/flags.h"
#include "support/json.h"
#include "support/parallel.h"
#include "support/table.h"

namespace sgl {
namespace {

// --- formatting -----------------------------------------------------------------

TEST(fmt, fixed_precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt(0.0, 3), "0.000");
}

TEST(fmt, scientific) {
  EXPECT_EQ(fmt_sci(1250000.0, 2), "1.25e+06");
  EXPECT_EQ(fmt_sci(0.004, 1), "4.0e-03");
}

TEST(fmt, plus_minus) {
  EXPECT_EQ(fmt_pm(0.5, 0.01, 2), "0.50 ± 0.01");
}

// --- text_table -----------------------------------------------------------------

TEST(text_table, aligns_columns) {
  text_table t{{"name", "value"}};
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator line exists.
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2U);
  EXPECT_EQ(t.columns(), 2U);
}

TEST(text_table, csv_round_trip_simple) {
  text_table t{{"a", "b"}};
  t.add_row({"1", "2"});
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(text_table, csv_escapes_special_cells) {
  text_table t{{"a"}};
  t.add_row({"x,y"});
  t.add_row({"quote\"inside"});
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(), "a\n\"x,y\"\n\"quote\"\"inside\"\n");
}

TEST(text_table, rejects_mismatched_rows) {
  text_table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(text_table{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(text_table, utf8_width_alignment) {
  // The ± glyph must count as one column, not two bytes.
  text_table t{{"x"}};
  t.add_row({fmt_pm(1.0, 0.5, 1)});
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("±"), std::string::npos);
}

// --- flag_set -------------------------------------------------------------------

TEST(flag_set, parses_all_types) {
  flag_set flags{"prog", "test"};
  flags.add_int64("reps", 10, "replications");
  flags.add_double("beta", 0.6, "adopt prob");
  flags.add_bool("quick", false, "fast mode");
  flags.add_string("out", "none", "output file");

  const char* argv[] = {"prog", "--reps", "25", "--beta=0.7", "--quick", "--out", "x.csv"};
  ASSERT_EQ(flags.parse(7, argv), parse_status::ok);
  EXPECT_EQ(flags.get_int64("reps"), 25);
  EXPECT_DOUBLE_EQ(flags.get_double("beta"), 0.7);
  EXPECT_TRUE(flags.get_bool("quick"));
  EXPECT_EQ(flags.get_string("out"), "x.csv");
}

TEST(flag_set, defaults_without_arguments) {
  flag_set flags{"prog", "test"};
  flags.add_int64("n", 5, "count");
  const char* argv[] = {"prog"};
  ASSERT_EQ(flags.parse(1, argv), parse_status::ok);
  EXPECT_EQ(flags.get_int64("n"), 5);
}

TEST(flag_set, get_double_promotes_int_flags) {
  flag_set flags{"prog", "test"};
  flags.add_int64("n", 5, "count");
  const char* argv[] = {"prog"};
  ASSERT_EQ(flags.parse(1, argv), parse_status::ok);
  EXPECT_DOUBLE_EQ(flags.get_double("n"), 5.0);
}

TEST(flag_set, bool_accepts_explicit_values) {
  flag_set flags{"prog", "test"};
  flags.add_bool("x", true, "");
  const char* argv[] = {"prog", "--x=false"};
  ASSERT_EQ(flags.parse(2, argv), parse_status::ok);
  EXPECT_FALSE(flags.get_bool("x"));
}

TEST(flag_set, unknown_flag_is_error) {
  flag_set flags{"prog", "test"};
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_EQ(flags.parse(3, argv), parse_status::error);
}

TEST(flag_set, equals_form_parses_every_type) {
  flag_set flags{"prog", "test"};
  flags.add_int64("reps", 10, "");
  flags.add_double("beta", 0.6, "");
  flags.add_bool("quick", false, "");
  flags.add_string("out", "none", "");
  const char* argv[] = {"prog", "--reps=25", "--beta=0.7", "--quick=true", "--out=x.csv"};
  ASSERT_EQ(flags.parse(5, argv), parse_status::ok);
  EXPECT_EQ(flags.get_int64("reps"), 25);
  EXPECT_DOUBLE_EQ(flags.get_double("beta"), 0.7);
  EXPECT_TRUE(flags.get_bool("quick"));
  EXPECT_EQ(flags.get_string("out"), "x.csv");
}

TEST(flag_set, string_list_flags_accumulate) {
  flag_set flags{"prog", "test"};
  flags.add_string_list("set", "override");
  const char* argv[] = {"prog", "--set", "a=1", "--set=b=2", "--set", "c=3"};
  ASSERT_EQ(flags.parse(6, argv), parse_status::ok);
  const std::vector<std::string> expected{"a=1", "b=2", "c=3"};
  EXPECT_EQ(flags.get_string_list("set"), expected);
}

TEST(flag_set, positional_arguments_are_opt_in) {
  const char* argv[] = {"prog", "a.scn", "--threads", "-1", "b.scn", "-"};
  flag_set strict{"prog", "test"};
  strict.add_int64("threads", 0, "");
  EXPECT_EQ(strict.parse(6, argv), parse_status::error);

  flag_set flags{"prog", "test"};
  flags.add_int64("threads", 0, "");
  flags.allow_positional("FILE...");
  ASSERT_EQ(flags.parse(6, argv), parse_status::ok);
  const std::vector<std::string> expected{"a.scn", "b.scn", "-"};
  EXPECT_EQ(flags.positional(), expected);
  EXPECT_EQ(flags.get_int64("threads"), -1) << "a flag's value is never positional";
}

TEST(flag_set, string_list_defaults_empty) {
  flag_set flags{"prog", "test"};
  flags.add_string_list("set", "override");
  const char* argv[] = {"prog"};
  ASSERT_EQ(flags.parse(1, argv), parse_status::ok);
  EXPECT_TRUE(flags.get_string_list("set").empty());
}

TEST(flag_set, suggests_nearest_flag_for_typos) {
  flag_set flags{"prog", "test"};
  flags.add_int64("horizon", 100, "");
  flags.add_int64("reps", 10, "");
  flags.add_string("name", "x", "");
  EXPECT_EQ(flags.closest_flag("horzon"), "horizon");
  EXPECT_EQ(flags.closest_flag("nme"), "name");
  EXPECT_EQ(flags.closest_flag("repss"), "reps");
  // Nothing close enough: no suggestion.
  EXPECT_EQ(flags.closest_flag("zzzzzzzzzz"), "");
  const char* argv[] = {"prog", "--horzon", "5"};
  EXPECT_EQ(flags.parse(3, argv), parse_status::error);
}

TEST(edit_distance, counts_single_edits) {
  EXPECT_EQ(edit_distance("", ""), 0U);
  EXPECT_EQ(edit_distance("abc", "abc"), 0U);
  EXPECT_EQ(edit_distance("abc", "abd"), 1U);   // substitute
  EXPECT_EQ(edit_distance("abc", "ab"), 1U);    // delete
  EXPECT_EQ(edit_distance("abc", "xabc"), 1U);  // insert
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3U);
  EXPECT_EQ(edit_distance("", "abc"), 3U);
}

TEST(flag_set, bad_value_is_error) {
  flag_set flags{"prog", "test"};
  flags.add_int64("n", 1, "");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_EQ(flags.parse(3, argv), parse_status::error);
}

TEST(flag_set, missing_value_is_error) {
  flag_set flags{"prog", "test"};
  flags.add_int64("n", 1, "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_EQ(flags.parse(2, argv), parse_status::error);
}

TEST(flag_set, positional_argument_is_error) {
  flag_set flags{"prog", "test"};
  const char* argv[] = {"prog", "stray"};
  EXPECT_EQ(flags.parse(2, argv), parse_status::error);
}

TEST(flag_set, help_short_circuits) {
  flag_set flags{"prog", "test"};
  const char* argv[] = {"prog", "--help"};
  EXPECT_EQ(flags.parse(2, argv), parse_status::help);
}

TEST(flag_set, duplicate_registration_throws) {
  flag_set flags{"prog", "test"};
  flags.add_int64("n", 1, "");
  EXPECT_THROW(flags.add_double("n", 1.0, ""), std::invalid_argument);
  EXPECT_THROW(flags.add_int64("--bad", 1, ""), std::invalid_argument);
}

TEST(flag_set, unregistered_get_throws) {
  flag_set flags{"prog", "test"};
  EXPECT_THROW((void)flags.get_int64("ghost"), std::invalid_argument);
}

// --- json -----------------------------------------------------------------------

TEST(json, escape_handles_specials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(json, number_is_shortest_exact_round_trip) {
  EXPECT_EQ(json_number(0.65), "0.65");
  EXPECT_EQ(json_number(1000000.0), "1000000");
  EXPECT_EQ(json_number(1e300), "1e+300");
  EXPECT_EQ(json_number(0.0), "0");
  // A value needing all 17 digits survives the round trip.
  const double awkward = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(awkward)), awkward);
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(json, writer_produces_valid_nested_documents) {
  std::ostringstream out;
  json_writer json{out, 0};  // compact
  json.begin_object();
  json.key("name").value("x");
  json.key("values").begin_array().value(1.5).value(std::uint64_t{2}).end_array();
  json.key("nested").begin_object().key("flag").value(true).end_object();
  json.key("none").null();
  json.key("raw").raw("[0.85, 0.35]");
  json.end_object();
  EXPECT_EQ(out.str(),
            "{\"name\":\"x\",\"values\":[1.5,2],\"nested\":{\"flag\":true},"
            "\"none\":null,\"raw\":[0.85, 0.35]}");
}

TEST(json, writer_rejects_malformed_sequences) {
  std::ostringstream out;
  json_writer json{out};
  json.begin_object();
  EXPECT_THROW(json.value(1.0), std::logic_error);  // value without key
  json.key("k");
  EXPECT_THROW(json.key("k2"), std::logic_error);  // key after key
  json.value(1.0);
  EXPECT_THROW(json.end_array(), std::logic_error);  // mismatched close
}

TEST(text_table, json_is_an_array_of_row_objects) {
  text_table t{{"a", "b"}};
  t.add_row({"1", "x\"y"});
  std::ostringstream out;
  t.write_json(out);
  EXPECT_EQ(out.str(), "[\n  {\n    \"a\": \"1\",\n    \"b\": \"x\\\"y\"\n  }\n]\n");
}

TEST(default_thread_count, is_positive) { EXPECT_GE(default_thread_count(), 1U); }

// --- parallel_tasks ---------------------------------------------------------------

TEST(parallel_tasks, runs_every_task_exactly_once) {
  constexpr std::size_t n = 257;
  std::vector<std::atomic<int>> visits(n);
  parallel_tasks(n, [&](std::size_t i) { visits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(parallel_tasks, propagates_first_exception_and_stops_claiming) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_tasks(
                   1000,
                   [&](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 3) throw std::runtime_error{"boom"};
                     // Slow tasks: the other participant cannot drain all
                     // 1000 while the one that claimed task 3 is descheduled.
                     std::this_thread::sleep_for(std::chrono::milliseconds{1});
                   },
                   2),
               std::runtime_error);
  // Unstarted tasks are skipped after the failure; only a bounded prefix
  // (plus in-flight tasks) ran.
  EXPECT_LT(ran.load(), 1000);
}

TEST(parallel_tasks, nested_submissions_do_not_deadlock) {
  // A task that makes its own call (say, a run_points call from inside a
  // task): the inner call must drain even when every participant is busy
  // with the outer one.  (On a single-core host everything runs inline,
  // which is the same contract.)
  constexpr std::size_t outer = 6;
  constexpr std::size_t inner = 8;
  std::atomic<int> total{0};
  parallel_tasks(
      outer,
      [&](std::size_t) {
        parallel_tasks(inner, [&](std::size_t) { total.fetch_add(1); }, 4);
      },
      4);
  EXPECT_EQ(total.load(), static_cast<int>(outer * inner));
}

TEST(parallel_tasks, reentrant_after_many_submissions) {
  // Thousands of short calls must not leak threads or wedge (each call
  // starts and joins its own helpers).
  std::atomic<std::size_t> sum{0};
  for (int round = 0; round < 2000; ++round) {
    parallel_tasks(4, [&](std::size_t i) { sum.fetch_add(i); }, 2);
  }
  EXPECT_EQ(sum.load(), 2000U * (0 + 1 + 2 + 3));
}

TEST(parallel_tasks, participants_never_exceed_threads_or_cores) {
  // 48 sleeping tasks overlap on every participant, so the peak number
  // running at once is the participant count.  Few tasks: a missing clamp
  // starts at most 47 threads.
  for (const unsigned threads : {1U, 2U, 64U}) {
    std::atomic<unsigned> running{0};
    std::atomic<unsigned> peak{0};
    parallel_tasks(
        48,
        [&](std::size_t) {
          const unsigned now = running.fetch_add(1) + 1;
          unsigned seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds{2});
          running.fetch_sub(1);
        },
        threads);
    EXPECT_GE(peak.load(), 1U) << threads;
    EXPECT_LE(peak.load(), std::min(threads, default_thread_count())) << threads;
  }
}

TEST(parallel_tasks, one_participant_runs_on_the_caller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  const auto check = [&](std::size_t) {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  };
  parallel_tasks(16, check, 1);  // threads = 1
  parallel_tasks(1, check, 8);   // task_count = 1
  parallel_tasks(1, check);      // task_count = 1, all cores
  EXPECT_EQ(elsewhere.load(), 0);
}

}  // namespace
}  // namespace sgl
