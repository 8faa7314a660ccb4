#pragma once

/// \file claims.h
/// Paper claims as checked data (DESIGN.md "Paper claims as data").  A
/// claim file is a scenario file (serialize.h) plus three claim-only key
/// families, which the loader removes before the rest builds the base spec:
///
///   run.horizon, run.replications, run.seed
///       the run.  The file fixes it, so a verdict depends only on the file.
///   point.N = "key=value; key=value"
///       one run of the claim: apply_override assignments on the base spec.
///       A point may also set run.horizon.
///   expect.N = "<probe>.<scalar> <= | >= <bound>"
///       checked on every point of the file.  The bound is a number,
///       `k*delta` or `best_mass_lower_bound`, both evaluated on the point
///       from core/theory.h.
///
/// Indices count up from 0 in file order.  Every point and expect is
/// checked at load time — keys, expect syntax, probe and scalar names, and
/// the theorem hypotheses behind a theory bound — so a bad file is refused
/// before any point runs, with the file, the line and the point named.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/scenario.h"

namespace sgl::scenario {

/// One `expect.N` line.
struct claim_expect {
  enum class bound_kind {
    number,                 ///< the literal `value`
    delta_multiple,         ///< `value`·δ (`3*delta` is Thm 4.3's bound)
    best_mass_lower_bound,  ///< 1 − 3δ/gap of Thm 4.3, part 2
  };

  std::size_t line = 0;
  std::string text;    ///< as written, e.g. "regret.regret <= 3*delta"
  std::string probe;   ///< probe name (core/probe.h)
  std::string scalar;  ///< scalar key of that probe's report
  bool at_most = true; ///< `<=`; false for `>=`
  bound_kind bound = bound_kind::number;
  double value = 0.0;  ///< the number, or k of `k*delta`
};

/// One `point.N` line, resolved against the base spec.
struct claim_point {
  std::size_t line = 0;
  std::string text;  ///< the override list as written
  std::vector<std::pair<std::string, std::string>> assignments;  ///< without run.horizon
  scenario_spec spec;          ///< base + assignments, validated
  core::run_config run;        ///< the file's run with this point's horizon
  std::vector<double> bounds;  ///< one per expect, evaluated on this point
};

/// A loaded claim file; every point passed the load-time checks.
struct claim_file {
  std::string source;  ///< the path rejections and rows name
  scenario_spec base;
  std::vector<claim_point> points;
  std::vector<claim_expect> expects;
};

/// One verdict: expect.`expect` measured on point.`point`.
struct claim_row {
  std::size_t point = 0;
  std::size_t expect = 0;
  core::probe_scalar measured;
  double bound = 0.0;
  bool pass = false;
};

/// Parses and checks a claim file.  Throws std::invalid_argument on the
/// first rejection, as "<source>:<line>: point.N: ..." (or expect.N).
[[nodiscard]] claim_file parse_claims(std::string_view text, std::string source);

/// Reads the file at `path` and parse_claims it with `path` as the source.
[[nodiscard]] claim_file load_claims(const std::string& path);

/// The comparison rule.  A scalar with a confidence interval fails only
/// when the whole 95% interval lies on the wrong side of the bound, or when
/// it is the mean of no samples (e.g. hitting_time when no replication
/// hit); a scalar without one is compared directly.
[[nodiscard]] bool claim_holds(const core::probe_scalar& measured, bool at_most,
                               double bound) noexcept;

/// Runs every point through run_sweep — one schedule per distinct horizon,
/// `threads` workers (0 = all cores) — and returns one row per
/// (point, expect), points in file order, each point's expects in order.
[[nodiscard]] std::vector<claim_row> run_claims(const claim_file& file, unsigned threads);

}  // namespace sgl::scenario
