#include "property/property_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/probe.h"
#include "scenario/serialize.h"

namespace sgl::testgen {
namespace {

/// True when the property still fails on `text` after a shrink edit: the
/// candidate must parse, validate, and reproduce a violation.  Parse or
/// validation errors mean the edit left the valid-spec space — the
/// candidate is discarded, never reported.
bool still_fails(const std::string& text, const spec_property& fails) {
  scenario::scenario_spec candidate;
  try {
    candidate = scenario::parse_scenario(text);
  } catch (const std::exception&) {
    return false;
  }
  if (!scenario::validate_spec_error(candidate).empty()) return false;
  return !fails(candidate).empty();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// The removable-unit key of a serialized line: indexed-family lines
/// (groups.2.beta) share one unit per index ("groups.2.") so a whole entry
/// is dropped atomically, every other line is its own unit (its key).
std::string unit_of(const std::string& line) {
  const std::size_t eq = line.find('=');
  std::string key = line.substr(0, eq == std::string::npos ? line.size() : eq);
  while (!key.empty() && key.back() == ' ') key.pop_back();
  for (const char* family : {"groups.", "agent_rules.", "faults."}) {
    if (key.rfind(family, 0) != 0) continue;
    const std::size_t index_begin = std::string{family}.size();
    const std::size_t dot = key.find('.', index_begin);
    if (dot == std::string::npos) break;
    const std::string index = key.substr(index_begin, dot - index_begin);
    if (!index.empty() &&
        std::all_of(index.begin(), index.end(),
                    [](unsigned char c) { return c >= '0' && c <= '9'; })) {
      return key.substr(0, dot + 1);
    }
  }
  return key;
}

/// One greedy pass: try dropping each unit, last first (indexed families
/// shed their highest index before their lowest, keeping them contiguous).
/// Returns true when anything was removed.
bool drop_units_pass(std::vector<std::string>& lines, const spec_property& fails) {
  std::vector<std::string> units;
  for (const std::string& line : lines) {
    const std::string unit = unit_of(line);
    if (units.empty() || units.back() != unit) units.push_back(unit);
  }
  bool removed_any = false;
  for (auto it = units.rbegin(); it != units.rend(); ++it) {
    // num_agents only ever shrinks by rewrite: dropping the line would
    // "shrink" the population to its default of 1000.
    if (*it == "num_agents") continue;
    std::vector<std::string> candidate;
    for (const std::string& line : lines) {
      if (unit_of(line) != *it) candidate.push_back(line);
    }
    if (candidate.size() == lines.size()) continue;
    if (still_fails(join_lines(candidate), fails)) {
      lines = std::move(candidate);
      removed_any = true;
    }
  }
  return removed_any;
}

/// Shrinks a numeric `key = <n>` line strictly downward: tries the given
/// candidates (ascending) that are below the current value and keeps the
/// smallest one the property still fails on.  Strict descent is what makes
/// the shrink loop terminate.
bool shrink_number(std::vector<std::string>& lines, const std::string& key,
                   const std::vector<std::uint64_t>& candidates,
                   const spec_property& fails) {
  for (std::string& line : lines) {
    if (unit_of(line) != key) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return false;
    const std::uint64_t current =
        std::strtoull(line.c_str() + eq + 1, nullptr, 10);
    const std::string saved = line;
    for (const std::uint64_t candidate : candidates) {
      if (candidate >= current) break;
      line = key + " = " + std::to_string(candidate);
      if (still_fails(join_lines(lines), fails)) return true;
      line = saved;
    }
    return false;
  }
  return false;
}

std::string env_text(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? std::string{} : std::string{value};
}

/// Best-effort name of the running test binary, for the repro command.
std::string binary_name() {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string{"<property-test-binary>"} : self.filename().string();
}

std::string gtest_filter() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (info == nullptr) return "*";
  return std::string{info->test_suite_name()} + "." + info->name();
}

/// Writes the failing spec under SGL_PROPERTY_ARTIFACT_DIR (when set) so CI
/// can upload it.  The failure details ride along as `#` comments — the
/// file stays directly `--file`-loadable.
void write_artifact(const failure_report& report) {
  const std::string dir = env_text("SGL_PROPERTY_ARTIFACT_DIR");
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string name = gtest_filter();
  std::replace_if(
      name.begin(), name.end(),
      [](unsigned char c) { return !std::isalnum(c) && c != '-' && c != '_'; }, '_');
  const std::filesystem::path path =
      std::filesystem::path{dir} /
      (name + "-seed" + std::to_string(report.seed) + "-iter" +
       std::to_string(report.iteration) + ".scenario");
  std::ofstream out{path};
  out << "# property failure: " << report.message << "\n";
  out << "# repro: " << report.repro << "\n";
  out << report.spec_text;
}

}  // namespace

scenario::scenario_spec shrink_failing_spec(const scenario::scenario_spec& spec,
                                            const spec_property& fails) {
  std::vector<std::string> lines = split_lines(scenario::serialize_scenario(spec));
  // Alternate removal passes with population shrinks until neither makes
  // progress.  Smaller N first: it often unlocks line removals (a topology
  // constraint that held at N=40 may be droppable at N=2) and vice versa.
  bool progress = true;
  while (progress) {
    progress = false;
    // degree first: watts_strogatz/barabasi_albert bounds (2k < N, k < N)
    // otherwise pin the population high.
    progress = shrink_number(lines, "topology.degree", {1, 2}, fails) || progress;
    progress =
        shrink_number(lines, "num_agents", {1, 2, 3, 4, 10, 100}, fails) || progress;
    progress =
        shrink_number(lines, "params.num_options", {1, 2}, fails) || progress;
    progress = drop_units_pass(lines, fails) || progress;
  }
  return scenario::parse_scenario(join_lines(lines));
}

std::vector<failure_report> run_property(const spec_property& property,
                                         const property_plan& plan,
                                         std::size_t max_failures) {
  std::vector<failure_report> reports;
  for (std::uint64_t i = 0; i < plan.iterations; ++i) {
    const scenario::scenario_spec spec = draw_scenario(plan.seed, i);
    if (property(spec).empty()) continue;

    const auto fails = [&property](const scenario::scenario_spec& candidate) {
      return property(candidate);
    };
    const scenario::scenario_spec minimal = shrink_failing_spec(spec, fails);
    failure_report report;
    report.seed = plan.seed;
    report.iteration = i;
    report.message = property(minimal);
    report.spec_text = scenario::serialize_scenario(minimal);
    report.repro = "SGL_PROPERTY_SEED=" + std::to_string(plan.seed) +
                   " SGL_PROPERTY_ITERS=" + std::to_string(i + 1) + " ./" +
                   binary_name() + " --gtest_filter=" + gtest_filter();
    reports.push_back(std::move(report));
    if (reports.size() >= max_failures) break;
  }
  return reports;
}

std::string dump_probe_reports(const core::probe_list& probes) {
  const auto append_double = [](std::string& out, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  };
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

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string run_fingerprint(const scenario::scenario_spec& spec,
                            const core::run_config& config) {
  return dump_probe_reports(scenario::run_probes(spec, config));
}

core::run_config property_run_config() {
  core::run_config config;
  config.horizon = 20;
  config.replications = 2;
  config.seed = 7;
  config.threads = 1;
  return config;
}

std::size_t check_scenario_property(const spec_property& property,
                                    std::uint64_t default_iterations,
                                    std::size_t max_reported_failures) {
  const property_plan plan = property_run_plan(default_iterations);
  const std::vector<failure_report> reports =
      run_property(property, plan, max_reported_failures);
  for (const failure_report& report : reports) {
    write_artifact(report);
    ADD_FAILURE() << "property violated at iteration " << report.iteration
                  << " (seed " << report.seed << "):\n  " << report.message
                  << "\n\nminimal failing spec (save and run with --file):\n"
                  << report.spec_text << "\nreproduce with:\n  " << report.repro;
  }
  return reports.size();
}

}  // namespace sgl::testgen
