#include "scenario/claims.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/theory.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "support/json_parse.h"
#include "support/text.h"

namespace sgl::scenario {
namespace {

/// Runs `body`, prefixing any rejection it throws with
/// "<source>:<line>: <context>".
void at_line(const std::string& source, std::size_t line, const std::string& context,
             const std::function<void()>& body) {
  try {
    body();
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument{source + ":" + std::to_string(line) + ": " + context +
                                error.what()};
  }
}

/// N of a `family.N` key; nullopt when `key` is not of the family.
std::optional<std::size_t> family_index(std::string_view key, std::string_view family) {
  if (!key.starts_with(family) || key.size() <= family.size() ||
      key[family.size()] != '.') {
    return std::nullopt;
  }
  const std::string_view digits = key.substr(family.size() + 1);
  std::size_t index = 0;
  const auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
    throw std::invalid_argument{"'" + std::string{key} + "': expected " +
                                std::string{family} + ".N with N = 0, 1, ..."};
  }
  return index;
}

/// A run.* value: a positive integer (run.seed may be 0).
std::uint64_t parse_run_value(std::string_view key, std::string_view text) {
  const std::optional<std::uint64_t> value = parse_json_integer<std::uint64_t>(text);
  if (!value || (*value == 0 && key != "run.seed")) {
    throw std::invalid_argument{"'" + std::string{key} + "': expected a positive integer, got '" +
                                std::string{text} + "'"};
  }
  return *value;
}

/// A point or expect value: a JSON string, or the bare text.
std::string unquote(std::string_view text) {
  if (!text.starts_with('"')) return std::string{text};
  const json_value parsed = parse_json(text);
  if (!parsed.is_string()) throw std::invalid_argument{"expected one quoted string"};
  return parsed.text;
}

/// Line `expect.<index> = text`.
claim_expect parse_expect(std::size_t index, std::string_view text) {
  claim_expect expect;
  expect.text = std::string{text};
  const auto malformed = [&](const std::string& why) {
    return std::invalid_argument{"expect." + std::to_string(index) + " '" + expect.text +
                                 "': " + why + " (form: <probe>.<scalar> <= | >= <bound>)"};
  };
  std::size_t op = text.find("<=");
  if (op == std::string_view::npos) {
    op = text.find(">=");
    expect.at_most = false;
  }
  if (op == std::string_view::npos) throw malformed("no '<=' or '>='");

  const std::string_view measured = trim_ascii(text.substr(0, op));
  const std::size_t dot = measured.find('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 == measured.size()) {
    throw malformed("'" + std::string{measured} + "' is not <probe>.<scalar>");
  }
  expect.probe = std::string{measured.substr(0, dot)};
  expect.scalar = std::string{measured.substr(dot + 1)};

  // A JSON number is finite: `<= inf` would pass every row vacuously.
  const std::string_view bound = trim_ascii(text.substr(op + 2));
  const std::size_t star = std::min(bound.find('*'), bound.size());
  const std::optional<double> number = parse_json_number(trim_ascii(bound.substr(0, star)));
  if (number && star == bound.size()) {
    expect.value = *number;
  } else if (number && trim_ascii(bound.substr(star + 1)) == "delta") {
    expect.bound = claim_expect::bound_kind::delta_multiple;
    expect.value = *number;
  } else if (bound == "best_mass_lower_bound") {
    expect.bound = claim_expect::bound_kind::best_mass_lower_bound;
  } else {
    throw malformed("unknown bound '" + std::string{bound} +
                    "' (a JSON number, k*delta or best_mass_lower_bound)");
  }
  return expect;
}

/// The bound of `expect` on `point`, after checking that the point runs
/// the expect's probe and scalar and, for a theory bound, that the point
/// satisfies the theorem's hypotheses.
double evaluate_bound(const claim_expect& expect, const claim_point& point,
                      const core::probe_list& probes) {
  const auto probe = std::find_if(probes.begin(), probes.end(), [&](const auto& p) {
    return p->name() == expect.probe;
  });
  if (probe == probes.end()) {
    std::string names;
    for (const auto& p : probes) names += (names.empty() ? "" : ", ") + p->name();
    throw std::invalid_argument{"probe '" + expect.probe +
                                "' is not run on this point (its probes: " + names + ")"};
  }
  const core::probe_report report = (*probe)->report();
  if (report.find_scalar(expect.scalar) == nullptr) {
    std::vector<std::string_view> keys;
    std::string known;
    for (const auto& scalar : report.scalars) {
      keys.push_back(scalar.key);
      known += (known.empty() ? "" : ", ") + scalar.key;
    }
    const std::string suggestion = closest_name(expect.scalar, keys);
    throw std::invalid_argument{
        "probe '" + expect.probe + "' has no scalar '" + expect.scalar + "' (" +
        (suggestion.empty() ? "known: " + known : "did you mean '" + suggestion + "'?") + ")"};
  }
  if (expect.bound == claim_expect::bound_kind::number) return expect.value;

  const core::dynamics_params& params = point.spec.params;
  if (!params.satisfies_theorem_conditions() ||
      static_cast<double>(point.run.horizon) <
          core::theory::min_horizon(params.num_options, params.beta)) {
    std::ostringstream why;
    why << "a theory bound needs the theorem hypotheses (1/2 < beta <= e/(e+1), "
           "alpha = 1 - beta, 0 < mu <= delta^2/6, T >= ln(m)/delta^2); this point has "
        << "beta = " << params.beta << ", alpha = " << params.resolved_alpha()
        << ", mu = " << params.mu << ", m = " << params.num_options
        << ", T = " << point.run.horizon;
    throw std::invalid_argument{why.str()};
  }
  if (expect.bound == claim_expect::bound_kind::delta_multiple) {
    return expect.value * params.delta();
  }
  std::vector<double> etas = point.spec.environment.etas;
  if (etas.size() < 2) throw std::invalid_argument{"best_mass_lower_bound needs m >= 2"};
  std::partial_sort(etas.begin(), etas.begin() + 2, etas.end(), std::greater<>{});
  return core::theory::best_mass_lower_bound(params.beta, etas[0] - etas[1]);
}

}  // namespace

claim_file parse_claims(std::string_view text, std::string source) {
  claim_file file;
  file.source = std::move(source);
  std::vector<text_line> lines;
  try {
    lines = split_lines(text);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument{file.source + ": " + error.what()};
  }

  // Pass 1: the claim-only keys come out, every other line builds the base.
  std::optional<std::uint64_t> horizon;
  std::optional<std::uint64_t> replications;
  std::optional<std::uint64_t> seed;
  for (const text_line& line : lines) {
    at_line(file.source, line.number, "", [&] {
      const std::string_view key = line.key;
      if (key == "run.horizon") {
        horizon = parse_run_value(key, line.value);
      } else if (key == "run.replications") {
        replications = parse_run_value(key, line.value);
      } else if (key == "run.seed") {
        seed = parse_run_value(key, line.value);
      } else if (key.starts_with("run.")) {
        throw std::invalid_argument{"unknown key '" + std::string{key} +
                                    "' (run.horizon, run.replications, run.seed)"};
      } else if (const auto index = family_index(key, "point")) {
        if (*index != file.points.size()) {
          throw std::invalid_argument{"expected point." + std::to_string(file.points.size()) +
                                      ", got '" + std::string{key} + "'"};
        }
        claim_point& point = file.points.emplace_back();
        point.line = line.number;
        point.text = unquote(line.value);
      } else if (const auto index = family_index(key, "expect")) {
        if (*index != file.expects.size()) {
          throw std::invalid_argument{"expected expect." + std::to_string(file.expects.size()) +
                                      ", got '" + std::string{key} + "'"};
        }
        file.expects.emplace_back(parse_expect(*index, unquote(line.value))).line = line.number;
      } else {
        apply_override(file.base, key, line.value);
      }
    });
  }
  const auto missing = [&](const std::string& what) {
    throw std::invalid_argument{file.source + ": " + what};
  };
  if (!replications) missing("no run.replications");
  if (!seed) missing("no run.seed");
  if (file.points.empty()) missing("no point.N lines");
  if (file.expects.empty()) missing("no expect.N lines");

  // Pass 2: resolve each point, then check and evaluate every expect on it.
  for (std::size_t p = 0; p < file.points.size(); ++p) {
    claim_point& point = file.points[p];
    const std::string label = "point." + std::to_string(p);
    core::probe_list probes;
    at_line(file.source, point.line, label + ": ", [&] {
      point.spec = file.base;
      std::optional<std::uint64_t> point_horizon = horizon;
      std::string_view rest = point.text;
      while (!rest.empty()) {
        const std::size_t semicolon = std::min(rest.find(';'), rest.size());
        const std::string_view item = trim_ascii(rest.substr(0, semicolon));
        rest.remove_prefix(std::min(semicolon + 1, rest.size()));
        if (item.empty()) continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
          throw std::invalid_argument{"expected key=value, got '" + std::string{item} + "'"};
        }
        const std::string_view key = trim_ascii(item.substr(0, eq));
        const std::string_view value = trim_ascii(item.substr(eq + 1));
        if (key == "run.horizon") {
          point_horizon = parse_run_value(key, value);
          continue;
        }
        apply_override(point.spec, key, value);
        point.assignments.emplace_back(key, value);
      }
      if (!point_horizon) {
        throw std::invalid_argument{"no run.horizon (set it in the file or the point)"};
      }
      point.run.horizon = *point_horizon;
      point.run.replications = *replications;
      point.run.seed = *seed;
      validate_spec(point.spec);
      probes = core::make_probes(resolved_probes(point.spec, {}));
    });
    for (std::size_t e = 0; e < file.expects.size(); ++e) {
      const claim_expect& expect = file.expects[e];
      at_line(file.source, expect.line,
              "expect." + std::to_string(e) + " on " + label + " (line " +
                  std::to_string(point.line) + "): ",
              [&] { point.bounds.push_back(evaluate_bound(expect, point, probes)); });
    }
  }
  return file;
}

claim_file load_claims(const std::string& path) {
  std::ifstream input{path};
  if (!input) throw std::invalid_argument{"cannot open claim file '" + path + "'"};
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return parse_claims(buffer.str(), path);
}

bool claim_holds(const core::probe_scalar& measured, bool at_most, double bound) noexcept {
  if (measured.has_ci && measured.samples == 0) return false;
  const double slack = measured.has_ci ? measured.half_width : 0.0;
  return at_most ? measured.value - slack <= bound : measured.value + slack >= bound;
}

std::vector<claim_row> run_claims(const claim_file& file, unsigned threads) {
  // run_sweep takes one run_config, so points are scheduled per horizon.
  std::map<std::uint64_t, std::vector<std::size_t>> by_horizon;
  for (std::size_t p = 0; p < file.points.size(); ++p) {
    by_horizon[file.points[p].run.horizon].push_back(p);
  }
  std::vector<std::vector<core::probe_report>> reports(file.points.size());
  for (const auto& [horizon, members] : by_horizon) {
    std::vector<std::vector<std::pair<std::string, std::string>>> grid;
    for (const std::size_t p : members) grid.push_back(file.points[p].assignments);
    core::run_config config = file.points[members.front()].run;
    config.threads = threads;
    const std::vector<sweep_point_result> results = run_sweep(file.base, grid, config);
    for (std::size_t i = 0; i < members.size(); ++i) {
      reports[members[i]] = core::collect_reports(results[i].probes);
    }
  }

  std::vector<claim_row> rows;
  for (std::size_t p = 0; p < file.points.size(); ++p) {
    for (std::size_t e = 0; e < file.expects.size(); ++e) {
      const claim_expect& expect = file.expects[e];
      const auto report =
          std::find_if(reports[p].begin(), reports[p].end(),
                       [&](const core::probe_report& r) { return r.probe == expect.probe; });
      claim_row row;
      row.point = p;
      row.expect = e;
      row.measured = *report->find_scalar(expect.scalar);  // checked at load time
      row.bound = file.points[p].bounds[e];
      row.pass = claim_holds(row.measured, expect.at_most, row.bound);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace sgl::scenario
