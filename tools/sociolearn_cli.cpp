// sociolearn_cli — a command-line driver for the library.
//
//   sociolearn_cli bounds    --m 10 --beta 0.62
//       prints every theorem constant for the given parameters.
//   sociolearn_cli scenarios
//       lists the named scenarios of the registry.
//   sociolearn_cli scenario  --name ring --horizon 400 --reps 50
//       runs a scenario under the Monte-Carlo harness.  The spec can come
//       from the registry (--name) or a text file (--file spec.scn); --set
//       key=value overrides individual fields (e.g. --set params.beta=0.7),
//       --probes chooses the measurements, and --format json emits one
//       machine-readable document per run (spec echo + probe results +
//       timing).
//   sociolearn_cli scenario  --name mixed_baseline --sweep params.beta=0.55:0.75:0.05
//       one run per grid point (axes are repeatable; the cartesian product
//       is taken, last axis fastest; --format json wraps the documents in
//       one array).
//   sociolearn_cli scenario  --name gossip_lossy_sweep --sweep protocol.drop_probability=0:0.3:0.1
//       the gossip_* registry scenarios run the netsim-backed protocol
//       engine, configured by `protocol.*` and `faults.*` keys.
//   sociolearn_cli scenario  --name gossip_partition_heal --trace-out - | sociolearn_cli check-trace -
//       records one replication's structured netsim trace and replays it
//       against the protocol invariants (analysis/trace_check.h).
//   sociolearn_cli check-trace t.jsonl
//       checks a previously saved trace; exit 1 on any violation, 2 when
//       the file cannot be opened or read as a trace.
//   sociolearn_cli claims claims/*.scn
//       runs the paper's claims (scenario files with run.*, point.N and
//       expect.N lines, scenario/claims.h) and prints one verdict row per
//       (point, expect); exit 1 when any row fails.
//   sociolearn_cli submit --socket /tmp/sgl.sock --name ring --sweep params.beta=0.6,0.7
//       submits a job to a running sociolearnd and streams its JSONL
//       events (job_accepted, cache_hit, point_done, job_done) until the
//       job reaches a terminal state; `status` and `cancel` address a job
//       by the id the job_accepted event carried.
//
// Every subcommand but submit, status and cancel (which stream the
// daemon's JSONL events) accepts --format table|json|csv.  Every run is
// constructed through the scenario layer (scenario/) and executed by the
// probe-based runner (core/experiment.h, core/probe.h); everything is
// deterministic given --seed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/trace_check.h"
#include "core/experiment.h"
#include "core/probe.h"
#include "core/theory.h"
#include "netsim/trace.h"
#include "protocol/protocol_engine.h"
#include "scenario/claims.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "service/payload.h"
#include "service/result_store.h"
#include "service/socket.h"
#include "support/failpoint.h"
#include "support/flags.h"
#include "support/json.h"
#include "support/json_parse.h"
#include "support/rng.h"
#include "support/table.h"

namespace {

using namespace sgl;

// --- output format ----------------------------------------------------------

enum class output_format { table, json, csv };

void add_format_flag(flag_set& flags, const std::string& default_format) {
  flags.add_string("format", default_format, "output format: table | json | csv");
}

bool read_format(const flag_set& flags, output_format& format) {
  const std::string& name = flags.get_string("format");
  if (name == "table") {
    format = output_format::table;
  } else if (name == "json") {
    format = output_format::json;
  } else if (name == "csv") {
    format = output_format::csv;
  } else {
    std::fprintf(stderr, "unknown --format '%s' (table | json | csv)\n", name.c_str());
    return false;
  }
  return true;
}

/// Renders a finished table in the chosen format.
void emit_table(const text_table& table, output_format format) {
  switch (format) {
    case output_format::table: table.print(std::cout); break;
    case output_format::json: table.write_json(std::cout); break;
    case output_format::csv: table.write_csv(std::cout); break;
  }
}

/// Rejects a negative count flag with the flag named: cast to an unsigned
/// count, -3 replications or a -5 horizon wraps into an empty or endless
/// run.  Returns false (the caller exits 2) on the first negative one.
bool counts_non_negative(const flag_set& flags, std::initializer_list<const char*> names,
                         const char* command) {
  for (const char* name : names) {
    if (flags.get_int64(name) < 0) {
      std::fprintf(stderr, "%s: --%s must be >= 0, got %lld\n", command, name,
                   static_cast<long long>(flags.get_int64(name)));
      return false;
    }
  }
  return true;
}

/// Rejects a count flag above INT_MAX with the flag named: cast to the
/// retry loop's int, --retries 4294967296 wrapped to no re-attempt at all,
/// and cast to unsigned, --threads 4294967297 ran on one thread.
bool count_fits_int(const flag_set& flags, const char* name, const char* command) {
  if (flags.get_int64(name) <= std::numeric_limits<int>::max()) return true;
  std::fprintf(stderr, "%s: --%s must be <= %d, got %lld\n", command, name,
               std::numeric_limits<int>::max(), static_cast<long long>(flags.get_int64(name)));
  return false;
}

// --- model flags (bounds) ------------------------------------------------

void add_model_flags(flag_set& flags) {
  flags.add_int64("m", 4, "number of options");
  flags.add_double("beta", 0.65, "adopt probability on a good signal");
  flags.add_double("alpha", -1.0, "adopt probability on a bad signal (-1 = 1-beta)");
  flags.add_double("mu", -1.0, "exploration weight (-1 = delta^2/6)");
}

core::dynamics_params read_params(const flag_set& flags) {
  core::dynamics_params params;
  params.num_options = static_cast<std::size_t>(flags.get_int64("m"));
  params.beta = flags.get_double("beta");
  params.alpha = flags.get_double("alpha");
  params.mu = flags.get_double("mu");
  if (params.mu < 0.0) params.mu = core::theory::mu_cap(params.beta);
  params.validate();
  return params;
}

/// A scalar's table cell: mean ± half-width for an interval scalar, and
/// "n/a (0 samples)" when no replication produced a value to average (the
/// stored 0 is no estimate; JSON and CSV keep printing it).
std::string fmt_scalar(const core::probe_scalar& scalar) {
  if (!scalar.has_ci) return fmt(scalar.value, 4);
  if (scalar.samples == 0) return "n/a (0 samples)";
  return fmt_pm(scalar.value, scalar.half_width);
}

void print_estimate(const core::probe_report& regret, double bound, output_format format) {
  const auto pm = [&regret](std::string_view key) {
    return fmt_scalar(*regret.find_scalar(key));
  };
  const auto value = [&regret](std::string_view key) { return regret.find_scalar(key)->value; };
  text_table table{{"measure", "value"}};
  table.add_row({"regret", pm("regret")});
  table.add_row({"average reward", pm("average_reward")});
  table.add_row({"avg best-option mass", pm("best_mass")});
  table.add_row({"final best-option mass", pm("final_best_mass")});
  table.add_row({"empty-step fraction", fmt(value("empty_step_fraction"), 4)});
  table.add_row({"bound", fmt(bound, 4)});
  table.add_row(
      {"replications", std::to_string(static_cast<std::uint64_t>(value("replications")))});
  emit_table(table, format);
}

int cmd_bounds(int argc, const char* const* argv) {
  flag_set flags{"sociolearn_cli bounds", "print the paper's constants"};
  add_model_flags(flags);
  add_format_flag(flags, "table");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  output_format format = output_format::table;
  if (!read_format(flags, format)) return 2;
  const core::dynamics_params params = read_params(flags);
  const std::size_t m = params.num_options;
  const double beta = params.beta;

  text_table table{{"constant", "formula", "value"}};
  table.add_row({"delta", "ln(beta/(1-beta))", fmt(params.delta(), 6)});
  table.add_row({"beta cap", "e/(e+1)", fmt(core::theory::beta_cap(), 6)});
  table.add_row({"mu cap", "delta^2/6", fmt(core::theory::mu_cap(beta), 6)});
  table.add_row({"min horizon", "ln(m)/delta^2", fmt(core::theory::min_horizon(m, beta), 2)});
  table.add_row({"Regret_inf bound", "3 delta",
                 fmt(core::theory::infinite_regret_bound(beta), 6)});
  table.add_row({"Regret_N bound", "6 delta",
                 fmt(core::theory::finite_regret_bound(beta), 6)});
  table.add_row({"popularity floor", "mu(1-beta)/(4m)",
                 fmt_sci(core::theory::popularity_floor(m, params.mu, beta), 3)});
  table.add_row({"epoch length", "ln(1/zeta)/delta^2",
                 fmt(core::theory::epoch_length(m, params.mu, beta), 2)});
  for (const double n : {1e3, 1e6}) {
    table.add_row({"delta'' (N=" + fmt_sci(n, 0) + ")",
                   "sqrt(60 m lnN/((1-b)muN))",
                   fmt_sci(core::theory::delta_double_prime(m, params.mu, beta, n), 3)});
  }
  table.add_row({"theorem conditions met", "Thm 4.3/4.4 hypotheses",
                 params.satisfies_theorem_conditions() ? "yes" : "no"});
  emit_table(table, format);
  return 0;
}

int cmd_scenarios(int argc, const char* const* argv) {
  flag_set flags{"sociolearn_cli scenarios", "list the named scenarios"};
  add_format_flag(flags, "table");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  output_format format = output_format::table;
  if (!read_format(flags, format)) return 2;
  text_table table{{"name", "description"}};
  for (const auto& spec : scenario::all_scenarios()) {
    table.add_row({spec.name, spec.description});
  }
  emit_table(table, format);
  return 0;
}

// --- scenario ---------------------------------------------------------------

/// The flags that pick a run's base spec and what runs on it, shared by
/// `scenario` and `submit`.
void add_spec_flags(flag_set& flags) {
  flags.add_string("name", "",
                   "registry scenario name (see 'scenarios'); takes precedence "
                   "over --file");
  flags.add_string("file", "", "scenario spec file ('key = value' lines, see DESIGN.md)");
  flags.add_string_list("set", "field override key=value, applied last (repeatable)");
  flags.add_string_list("sweep",
                        "sweep axis key=lo:hi:step or key=v1,v2,... (repeatable; "
                        "cartesian product, last axis fastest)");
  flags.add_string("probes", "",
                   "comma-separated probe specs, e.g. 'regret,hitting_time(eps=0.1)' "
                   "(default: the scenario's probes, else regret)");
}

/// The base spec, by documented precedence: file < registry < --set, with
/// `quickstart` when neither --name nor --file is given.  A registry spec
/// is a complete value, so when --name is given the file could never
/// contribute and is not even opened.  Prints the error and returns
/// nullopt (the caller exits 2) when the file cannot be opened.
std::optional<scenario::scenario_spec> read_base_spec(const flag_set& flags) {
  scenario::scenario_spec spec;
  const std::string& file = flags.get_string("file");
  std::string name = flags.get_string("name");
  if (file.empty() && name.empty()) name = "quickstart";
  if (!name.empty()) {
    spec = scenario::get_scenario(name);
  } else {
    std::ifstream input{file};
    if (!input) {
      std::fprintf(stderr, "cannot open scenario file '%s'\n", file.c_str());
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << input.rdbuf();
    spec = scenario::parse_scenario(buffer.str());
  }
  for (const std::string& assignment : flags.get_string_list("set")) {
    scenario::apply_override(spec, assignment);
  }
  return spec;
}

/// One run's JSON document: spec echo, run config, sweep assignments,
/// probe reports, timing.
void write_run_json(json_writer& json, const scenario::scenario_spec& spec,
                    const core::run_config& config,
                    const std::vector<std::pair<std::string, std::string>>& assignments,
                    const std::vector<core::probe_report>& reports, double seconds) {
  json.begin_object();

  json.key("scenario").begin_object();
  for (const auto& [key, value] : scenario::scenario_fields(spec)) {
    json.key(key).raw(value);  // canonical values are JSON-compatible
  }
  json.end_object();

  json.key("run").begin_object();
  json.key("horizon").value(config.horizon);
  json.key("replications").value(config.replications);
  json.key("seed").value(config.seed);
  json.key("threads").value(static_cast<std::uint64_t>(config.threads));
  json.end_object();

  // A JSON-number assignment is echoed as its token, so 64-bit seeds stay exact.
  json.key("sweep").begin_object();
  for (const auto& [key, value] : assignments) {
    if (parse_json_number(value)) {
      json.key(key).raw(value);
    } else {
      json.key(key).value(value);
    }
  }
  json.end_object();

  json.key("probes");
  service::write_probe_reports(json, reports);

  json.key("timing").begin_object();
  json.key("seconds").value(seconds);
  json.end_object();

  json.end_object();
}

// --- trace capture / invariant checking -------------------------------------

/// Renders a trace_check_result and returns the process exit code (0 when
/// every invariant held, 1 otherwise).
int report_trace_check(const analysis::trace_check_result& result,
                       output_format format, const std::string& source) {
  if (format == output_format::json) {
    json_writer json{std::cout};
    json.begin_object();
    json.key("trace").value(source);
    json.key("records_checked").value(static_cast<std::uint64_t>(result.records_checked));
    json.key("ok").value(result.ok());
    json.key("skipped").begin_array();
    for (const std::string& name : result.skipped) json.value(name);
    json.end_array();
    json.key("violations").begin_array();
    for (const analysis::trace_violation& v : result.violations) {
      json.begin_object();
      json.key("invariant").value(v.invariant);
      json.key("time").value(v.time);
      json.key("node").value(static_cast<std::uint64_t>(v.node));
      json.key("record_index").value(static_cast<std::uint64_t>(v.record_index));
      json.key("detail").value(v.detail);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::cout << '\n';
  } else {
    for (const analysis::trace_violation& v : result.violations) {
      std::printf("violation %s t=%.6g node=%u record=%zu: %s\n", v.invariant.c_str(),
                  v.time, v.node, v.record_index, v.detail.c_str());
    }
    std::printf("%s: %zu records, %zu violation%s", source.c_str(),
                result.records_checked, result.violations.size(),
                result.violations.size() == 1 ? "" : "s");
    if (!result.skipped.empty()) {
      std::printf(" (skipped after ring eviction:");
      for (const std::string& name : result.skipped) std::printf(" %s", name.c_str());
      std::printf(")");
    }
    std::printf("\n");
  }
  return result.ok() ? 0 : 1;
}

/// Runs replication 0 of the harness through its replication runner, with
/// trace recording forced on, then writes the captured trace to `trace_out`
/// ('-' = stdout).
int run_traced_replication(scenario::scenario_spec spec, std::uint64_t horizon,
                           std::uint64_t seed, const std::string& trace_out) {
  spec.faults.record = true;  // force recording whatever the spec says
  if (scenario::resolved_engine(spec) != scenario::engine_kind::protocol) {
    std::fprintf(stderr,
                 "scenario '%s' does not run the protocol engine; structured "
                 "traces come from netsim (set engine = \"protocol\")\n",
                 spec.name.c_str());
    return 2;
  }

  core::run_config config;
  config.horizon = horizon;
  config.seed = seed;
  core::check_run_config(config);
  core::replication_context context{scenario::make_engine(spec),
                                    scenario::make_environment(spec.environment)};
  context.run(config, 0, {});

  const auto* proto = dynamic_cast<const protocol::protocol_engine*>(&context.engine());
  if (proto == nullptr || proto->recorder() == nullptr) {
    std::fprintf(stderr, "internal: the protocol engine produced no trace recorder\n");
    return 1;
  }
  const netsim::trace_recorder& recorder = *proto->recorder();
  analysis::trace_metadata meta;
  meta.num_nodes = spec.num_agents;
  meta.num_options = spec.params.num_options;
  meta.max_retries = static_cast<std::uint32_t>(spec.protocol.max_retries);
  meta.round_interval = spec.protocol.round_interval;
  meta.rounds = horizon;
  meta.seed = seed;
  meta.evicted = recorder.evicted();
  const std::vector<netsim::trace_record> records = recorder.snapshot();

  if (trace_out == "-") {
    analysis::write_trace(std::cout, meta, records);
    return 0;
  }
  std::ofstream out{trace_out};
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", trace_out.c_str());
    return 2;
  }
  analysis::write_trace(out, meta, records);
  std::fprintf(stderr, "wrote %zu trace records to %s\n", records.size(), trace_out.c_str());
  return 0;
}

int cmd_check_trace(int argc, const char* const* argv) {
  flag_set flags{"sociolearn_cli check-trace <file>",
                 "replay a recorded JSONL trace (scenario --trace-out) against "
                 "the protocol invariants; exit 1 on any violation, 2 when the "
                 "file cannot be opened or read as a trace"};
  flags.allow_positional("FILE  the JSONL trace ('-' = stdin)");
  add_format_flag(flags, "table");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  output_format format = output_format::table;
  if (!read_format(flags, format)) return 2;
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "check-trace: expected one trace file "
                         "(usage: sociolearn_cli check-trace trace.jsonl)\n");
    return 2;
  }
  const std::string& file = flags.positional().front();

  std::ifstream input;
  if (file != "-") {
    input.open(file);
    if (!input) {
      std::fprintf(stderr, "cannot open trace file '%s'\n", file.c_str());
      return 2;
    }
  }
  analysis::parsed_trace trace;
  try {
    trace = analysis::read_trace(file == "-" ? std::cin : input);
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "check-trace: %s: %s\n", file.c_str(), error.what());
    return 2;
  }
  return report_trace_check(analysis::check_trace(trace.meta, trace.records), format,
                            file);
}

int cmd_scenario(int argc, const char* const* argv) {
  flag_set flags{"sociolearn_cli scenario",
                 "run a scenario: registry or file base, overrides, sweeps, probes"};
  add_spec_flags(flags);
  add_format_flag(flags, "table");
  flags.add_int64("horizon", 400, "steps T");
  flags.add_int64("reps", 100, "replications");
  flags.add_int64("seed", 1, "master RNG seed");
  flags.add_int64("threads", 0, "replication worker threads (0 = all)");
  flags.add_string("trace-out", "",
                   "record replication 0's structured netsim trace to this "
                   "JSONL file ('-' = stdout; protocol engine only)");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  output_format format = output_format::table;
  if (!read_format(flags, format)) return 2;
  if (!counts_non_negative(flags, {"horizon", "reps", "threads"}, "scenario") ||
      !count_fits_int(flags, "threads", "scenario")) {
    return 2;
  }

  std::optional<scenario::scenario_spec> base = read_base_spec(flags);
  if (!base) return 2;
  scenario::scenario_spec spec = std::move(*base);

  // Trace capture short-circuits the harness: one dedicated recorded
  // replication instead of the Monte-Carlo run.
  const std::string& trace_out = flags.get_string("trace-out");
  if (!trace_out.empty()) {
    if (!flags.get_string_list("sweep").empty()) {
      std::fprintf(stderr,
                   "--trace-out records a single replication; it does not "
                   "combine with a sweep\n");
      return 2;
    }
    return run_traced_replication(std::move(spec),
                                  static_cast<std::uint64_t>(flags.get_int64("horizon")),
                                  static_cast<std::uint64_t>(flags.get_int64("seed")),
                                  trace_out);
  }

  core::run_config config;
  config.horizon = static_cast<std::uint64_t>(flags.get_int64("horizon"));
  config.replications = static_cast<std::uint64_t>(flags.get_int64("reps"));
  config.seed = static_cast<std::uint64_t>(flags.get_int64("seed"));
  config.threads = static_cast<unsigned>(flags.get_int64("threads"));

  // Probe selection: --probes > the spec's probes > regret.
  const std::vector<std::string> probe_specs = scenario::resolved_probes(
      spec, core::split_probe_specs(flags.get_string("probes")));

  // The sweep grid; one empty point when no axes were given.
  std::vector<scenario::sweep_axis> axes;
  for (const std::string& axis : flags.get_string_list("sweep")) {
    axes.push_back(scenario::parse_sweep_axis(axis));
  }
  const auto grid = scenario::expand_sweep(axes);
  const bool sweeping = !axes.empty();

  // Run the whole grid through the flattened sweep scheduler: every point
  // is overridden and validated before any replication starts, all
  // (point × shard) work items drain in one parallel_tasks call, engines
  // are reset()-reused per point, and points with the same topology key
  // share one built graph.  Per-point results are bit-identical to the
  // historical one-point-at-a-time loop (tests/harness_determinism_test).
  // Output begins only after the runs finish, so an error deep in the grid
  // can no longer leave a partial JSON array on stdout.
  const std::vector<scenario::sweep_point_result> results =
      scenario::run_sweep(spec, grid, config, probe_specs);

  json_writer json{std::cout};
  if (format == output_format::json && sweeping) json.begin_array();
  bool csv_header_done = false;
  const auto csv_row = [](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf("%s%s", c == 0 ? "" : ",", csv_escape(cells[c]).c_str());
    }
    std::printf("\n");
  };

  for (std::size_t run_index = 0; run_index < results.size(); ++run_index) {
    const scenario::sweep_point_result& point = results[run_index];
    const auto& assignments = point.assignments;
    const scenario::scenario_spec& run_spec = point.spec;
    // In-flight wall clock of this point; under the flattened schedule
    // points overlap, so the values can sum past the sweep's elapsed time.
    const double seconds = point.seconds;
    const std::vector<core::probe_report> reports = core::collect_reports(point.probes);

    switch (format) {
      case output_format::json:
        write_run_json(json, run_spec, config, assignments, reports, seconds);
        if (!sweeping) std::cout << '\n';
        break;
      case output_format::csv: {
        if (!csv_header_done) {
          std::vector<std::string> header{"scenario"};
          for (const auto& axis : axes) header.push_back(axis.key);
          for (const auto& report : reports) {
            for (const auto& scalar : report.scalars) {
              header.push_back(report.probe + "." + scalar.key);
            }
          }
          header.emplace_back("seconds");
          csv_row(header);
          csv_header_done = true;
        }
        std::vector<std::string> row{run_spec.name};
        for (const auto& [key, value] : assignments) row.push_back(value);
        for (const auto& report : reports) {
          for (const auto& scalar : report.scalars) {
            row.push_back(json_number(scalar.value));
          }
        }
        row.push_back(json_number(seconds));
        csv_row(row);
        break;
      }
      case output_format::table: {
        if (sweeping) {
          std::printf("# run %zu/%zu:", run_index + 1, results.size());
          for (const auto& [key, value] : assignments) {
            std::printf(" %s=%s", key.c_str(), value.c_str());
          }
          std::printf("\n");
        }
        std::printf("scenario: %s\n%s\n\n", run_spec.name.c_str(),
                    run_spec.description.c_str());
        for (const auto& report : reports) {
          if (report.probe == "regret") {
            // The 3δ vs 6δ bound follows the engine actually run, not N.
            print_estimate(
                report,
                scenario::resolved_engine(run_spec) == scenario::engine_kind::infinite
                    ? core::theory::infinite_regret_bound(run_spec.params.beta)
                    : core::theory::finite_regret_bound(run_spec.params.beta),
                format);
            continue;
          }
          if (report.probe == "trajectory") continue;  // per-step curves: --format json
          text_table table{{"probe metric", "value"}};
          for (const auto& scalar : report.scalars) {
            table.add_row({report.probe + "." + scalar.key, fmt_scalar(scalar)});
          }
          // Short series (per-option histograms etc.) render inline; long
          // ones (per-step curves) only fit the JSON output.
          constexpr std::size_t k_series_rows = 32;
          for (const auto& series : report.series) {
            if (series.values.size() > k_series_rows) {
              table.add_row({report.probe + "." + series.key,
                             std::to_string(series.values.size()) +
                                 " points (use --format json)"});
              continue;
            }
            for (std::size_t i = 0; i < series.values.size(); ++i) {
              table.add_row({report.probe + "." + series.key + "[" + std::to_string(i) + "]",
                             fmt(series.values[i], 4)});
            }
          }
          std::printf("\n");
          table.print(std::cout);
        }
        std::fprintf(stderr, "elapsed: %.3f s\n", seconds);
        break;
      }
    }
  }

  if (format == output_format::json && sweeping) {
    json.end_array();
    std::cout << '\n';
  }
  return 0;
}

// --- service client (sociolearnd) -------------------------------------------

/// The event lines a request elicits are passed through to stdout
/// verbatim — the client adds no framing of its own, so piping `submit`
/// output to a file yields the same JSONL the daemon spoke.

/// classify_event verdicts: negative = keep streaming, 0/1 = final exit
/// code, k_retryable = the request should be retried (backpressure).
constexpr int k_retryable = 100;

/// Classifies one event line into "keep reading" (-1), a final exit code,
/// or k_retryable.  Unparseable lines are the daemon's bug, not ours:
/// surface and keep going.
int classify_event(const std::string& line) {
  json_value event;
  try {
    event = parse_json(line);
  } catch (const std::exception&) {
    return -1;
  }
  const json_value* kind = event.find("event");
  if (kind == nullptr || !kind->is_string()) return -1;
  if (kind->text == "error") return 1;
  if (kind->text == "job_rejected") return k_retryable;  // backpressure, not failure
  if (kind->text == "job_done") {
    const json_value* status = event.find("status");
    return (status != nullptr && status->is_string() && status->text == "done") ? 0 : 1;
  }
  if (kind->text == "status") return 0;
  if (kind->text == "cancel_result") {
    const json_value* ok = event.find("cancelled");
    return (ok != nullptr && ok->type == json_value::kind::boolean && ok->boolean) ? 0 : 1;
  }
  return -1;  // job_accepted / cache_hit / point_done: keep streaming
}

/// One connect + request + event stream.  Returns the final exit code, or
/// k_retryable when the daemon was unreachable, rejected the job
/// (queue_full backpressure), or died before a terminal event.
int service_exchange_once(const std::string& socket_path, const std::string& request) {
  std::optional<service::unix_fd> fd;
  try {
    fd.emplace(service::unix_connect(socket_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return k_retryable;
  }
  if (!service::write_all(fd->get(), request + "\n")) {
    std::fprintf(stderr, "connection closed while sending the request\n");
    return k_retryable;
  }
  service::line_reader reader;
  while (std::optional<std::string> line = reader.next_line(fd->get())) {
    std::cout << *line << '\n' << std::flush;
    const int verdict = classify_event(*line);
    if (verdict >= 0) return verdict;
  }
  // A vanished daemon mid-stream: every acknowledged point is persisted
  // on its side (persist-then-emit), so resubmitting the identical
  // request is safe — the points come back as cache hits.
  std::fprintf(stderr, "connection closed before a terminal event (daemon died?)\n");
  return k_retryable;
}

/// Deterministic jitter: the same (request, attempt) always waits the same
/// extra milliseconds, so a scripted torture run reproduces exactly, while
/// distinct requests still decorrelate.
std::uint64_t backoff_jitter_ms(const std::string& request, int attempt,
                                std::uint64_t spread_ms) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : request) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  hash = (hash ^ static_cast<std::uint64_t>(attempt)) * 0x100000001b3ULL;
  return spread_ms == 0 ? 0 : hash % spread_ms;
}

/// Sends one request line and streams events until one is terminal,
/// retrying retryable outcomes with exponential backoff + deterministic
/// jitter.  `retries` is the number of *re*-attempts after the first try.
int service_exchange(const std::string& socket_path, const std::string& request,
                     int retries = 0, std::uint64_t base_ms = 100) {
  for (int attempt = 0;; ++attempt) {
    const int verdict = service_exchange_once(socket_path, request);
    if (verdict != k_retryable) return verdict;
    if (attempt >= retries) {
      std::fprintf(stderr, "giving up after %d attempt%s\n", attempt + 1,
                   attempt == 0 ? "" : "s");
      return 1;
    }
    const std::uint64_t delay =
        (base_ms << std::min(attempt, 16)) + backoff_jitter_ms(request, attempt, base_ms);
    std::fprintf(stderr, "retrying in %llu ms (attempt %lld of %lld)\n",
                 static_cast<unsigned long long>(delay), attempt + 2LL, retries + 1LL);
    std::this_thread::sleep_for(std::chrono::milliseconds{delay});
  }
}

int cmd_submit(int argc, const char* const* argv) {
  flag_set flags{"sociolearn_cli submit",
                 "submit a scenario or sweep to a running sociolearnd and "
                 "stream its JSONL events until the job finishes"};
  flags.add_string("socket", "", "sociolearnd socket path (required)");
  add_spec_flags(flags);
  flags.add_int64("horizon", 400, "steps T");
  flags.add_int64("reps", 100, "replications");
  flags.add_int64("seed", 1, "master RNG seed");
  flags.add_int64("priority", 0, "queue priority (higher runs first)");
  flags.add_int64("timeout", 0, "per-job wall-clock budget in seconds (0 = none)");
  flags.add_int64("retries", 4,
                  "re-attempts after connect failure, job_rejected backpressure, "
                  "or a daemon that died mid-stream; resubmission is idempotent "
                  "(persisted points return as cache hits)");
  flags.add_int64("retry-base-ms", 100,
                  "backoff base: attempt k waits base*2^k ms plus deterministic "
                  "jitter");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  const std::string& socket_path = flags.get_string("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "submit: --socket is required\n");
    return 2;
  }
  if (!counts_non_negative(flags, {"horizon", "reps", "retries", "retry-base-ms", "timeout"},
                           "submit") ||
      !count_fits_int(flags, "retries", "submit")) {
    return 2;
  }

  // Overrides are applied locally and the *canonical serialized form* is
  // sent, so what the daemon digests is exactly what a local run of the
  // same flags would execute.
  const std::optional<scenario::scenario_spec> spec = read_base_spec(flags);
  if (!spec) return 2;

  std::ostringstream request;
  json_writer json{request, /*indent=*/0};
  json.begin_object();
  json.key("op").value("submit");
  json.key("spec").value(scenario::serialize_scenario(*spec));
  if (!flags.get_string_list("sweep").empty()) {
    json.key("sweep").begin_array();
    for (const std::string& axis : flags.get_string_list("sweep")) json.value(axis);
    json.end_array();
  }
  json.key("horizon").value(static_cast<std::uint64_t>(flags.get_int64("horizon")));
  json.key("replications").value(static_cast<std::uint64_t>(flags.get_int64("reps")));
  json.key("seed").value(static_cast<std::uint64_t>(flags.get_int64("seed")));
  const std::vector<std::string> probes =
      core::split_probe_specs(flags.get_string("probes"));
  if (!probes.empty()) {
    json.key("probes").begin_array();
    for (const std::string& probe : probes) json.value(probe);
    json.end_array();
  }
  json.key("priority").value(flags.get_int64("priority"));
  if (flags.get_int64("timeout") > 0) {
    json.key("timeout").value(static_cast<double>(flags.get_int64("timeout")));
  }
  json.end_object();
  return service_exchange(socket_path, request.str(),
                          static_cast<int>(flags.get_int64("retries")),
                          static_cast<std::uint64_t>(flags.get_int64("retry-base-ms")));
}

/// `status` and `cancel` share everything but the op name.
int cmd_job_op(const char* op, int argc, const char* const* argv) {
  flag_set flags{std::string{"sociolearn_cli "} + op,
                 std::string{op} + " a sociolearnd job by id"};
  flags.add_string("socket", "", "sociolearnd socket path (required)");
  flags.add_int64("job", 0, "job id (from the job_accepted event)");
  flags.add_int64("retries", 0, "re-attempts after a connect failure");
  flags.add_int64("retry-base-ms", 100, "backoff base in milliseconds");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  const std::string& socket_path = flags.get_string("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket is required\n", op);
    return 2;
  }
  if (!counts_non_negative(flags, {"retries", "retry-base-ms"}, op) ||
      !count_fits_int(flags, "retries", op)) {
    return 2;
  }
  if (flags.get_int64("job") <= 0) {
    std::fprintf(stderr, "%s: --job must be a positive job id\n", op);
    return 2;
  }
  std::ostringstream request;
  json_writer json{request, /*indent=*/0};
  json.begin_object();
  json.key("op").value(op);
  json.key("job").value(static_cast<std::uint64_t>(flags.get_int64("job")));
  json.end_object();
  return service_exchange(socket_path, request.str(),
                          static_cast<int>(flags.get_int64("retries")),
                          static_cast<std::uint64_t>(flags.get_int64("retry-base-ms")));
}

// --- store audit ------------------------------------------------------------

/// `sociolearn_cli fsck --store DIR [--repair]` — walk the result store,
/// verify every object's checksum trailer, list tmp files orphaned by dead
/// writers, and (with --repair) quarantine/remove them.  Exit 0 when the
/// store is clean, 1 when anything was found (even if repaired).
int cmd_fsck(int argc, const char* const* argv) {
  flag_set flags{"sociolearn_cli fsck",
                 "audit a sociolearnd result store: verify object checksums, "
                 "find orphaned tmp files, report quarantine"};
  flags.add_string("store", "", "result store directory (required)");
  flags.add_bool("repair", false,
                 "quarantine corrupt objects and remove orphaned tmp files");
  add_format_flag(flags, "table");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  output_format format = output_format::table;
  if (!read_format(flags, format)) return 2;
  const std::string& store_path = flags.get_string("store");
  if (store_path.empty()) {
    std::fprintf(stderr, "fsck: --store is required\n");
    return 2;
  }
  if (!std::filesystem::is_directory(store_path)) {
    // Opening would *create* an empty store here, and a typo'd path would
    // audit it as spotlessly clean.  Auditing demands an existing store.
    std::fprintf(stderr, "fsck: no store at '%s'\n", store_path.c_str());
    return 2;
  }

  // gc_stale_tmp off: fsck *reports* orphans; only --repair removes them.
  service::store_options options;
  options.gc_stale_tmp = false;
  service::result_store store{store_path, options};
  const service::fsck_report report = store.fsck(flags.get_bool("repair"));

  if (format == output_format::json) {
    json_writer json{std::cout};
    json.begin_object();
    json.key("store").value(store_path);
    json.key("clean").value(report.clean());
    json.key("objects_ok").value(report.objects_ok);
    json.key("corrupt").begin_array();
    for (const std::string& path : report.corrupt) json.value(path);
    json.end_array();
    json.key("orphaned_tmp").begin_array();
    for (const std::string& path : report.orphaned_tmp) json.value(path);
    json.end_array();
    json.key("quarantined").value(report.quarantined);
    json.key("repaired").value(report.repaired);
    json.end_object();
    std::cout << '\n';
  } else {
    for (const std::string& path : report.corrupt) {
      std::printf("corrupt: %s%s\n", path.c_str(),
                  report.repaired ? " (moved to quarantine/)" : "");
    }
    for (const std::string& path : report.orphaned_tmp) {
      std::printf("orphaned tmp: %s%s\n", path.c_str(),
                  report.repaired ? " (removed)" : "");
    }
    std::printf("%s: %llu object%s ok, %zu corrupt, %zu orphaned tmp, "
                "%llu quarantined — %s\n",
                store_path.c_str(),
                static_cast<unsigned long long>(report.objects_ok),
                report.objects_ok == 1 ? "" : "s", report.corrupt.size(),
                report.orphaned_tmp.size(),
                static_cast<unsigned long long>(report.quarantined),
                report.clean() ? "clean" : "issues found");
  }
  return report.clean() ? 0 : 1;
}

// --- paper claims -----------------------------------------------------------

/// `sociolearn_cli claims FILE...` — load every claim file first (a refused
/// file runs nothing, exit 2), then run each and print one row per
/// (point, expect).  Exit 1 when any row fails.
int cmd_claims(int argc, const char* const* argv) {
  flag_set flags{"sociolearn_cli claims",
                 "check the paper's claims: run each claim file's points and "
                 "compare every expect with its bound; exit 1 on any FAIL"};
  flags.allow_positional("FILE...  claim files (see claims/ and DESIGN.md)");
  flags.add_int64("threads", 0, "worker threads (0 = all cores); verdicts do not depend on it");
  add_format_flag(flags, "table");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;
  output_format format = output_format::table;
  if (!read_format(flags, format)) return 2;
  if (!counts_non_negative(flags, {"threads"}, "claims") ||
      !count_fits_int(flags, "threads", "claims")) {
    return 2;
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr, "claims: no claim files (usage: sociolearn_cli claims claims/*.scn)\n");
    return 2;
  }
  std::vector<scenario::claim_file> files;
  try {
    for (const std::string& path : flags.positional()) {
      files.push_back(scenario::load_claims(path));
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "claims: %s\n", error.what());
    return 2;
  }

  const auto threads = static_cast<unsigned>(flags.get_int64("threads"));
  text_table table{{"claim", "point", "expect", "measured", "bound", "verdict"}};
  json_writer json{std::cout};
  if (format == output_format::json) json.begin_array();
  std::size_t rows = 0;
  std::size_t failed = 0;
  for (const scenario::claim_file& file : files) {
    for (const scenario::claim_row& row : scenario::run_claims(file, threads)) {
      const scenario::claim_point& point = file.points[row.point];
      const scenario::claim_expect& expect = file.expects[row.expect];
      ++rows;
      if (!row.pass) ++failed;
      if (format != output_format::json) {
        table.add_row({file.source, "point." + std::to_string(row.point),
                       "expect." + std::to_string(row.expect) + ": " + expect.text,
                       fmt_scalar(row.measured), fmt(row.bound, 4), row.pass ? "pass" : "FAIL"});
        continue;
      }
      json.begin_object();
      json.key("claim").value(file.source);
      json.key("point").value(static_cast<std::uint64_t>(row.point));
      json.key("point_line").value(static_cast<std::uint64_t>(point.line));
      json.key("overrides").value(point.text);
      json.key("expect").value(static_cast<std::uint64_t>(row.expect));
      json.key("expect_line").value(static_cast<std::uint64_t>(expect.line));
      json.key("check").value(expect.text);
      json.key("value").value(row.measured.value);
      if (row.measured.has_ci) json.key("half_width").value(row.measured.half_width);
      json.key("bound").value(row.bound);
      json.key("pass").value(row.pass);
      json.end_object();
    }
  }
  if (format == output_format::json) {
    json.end_array();
    std::cout << '\n';
  } else {
    emit_table(table, format);
  }
  std::fprintf(stderr, "claims: %zu rows from %zu files, %zu FAIL\n", rows, files.size(),
               failed);
  return failed == 0 ? 0 : 1;
}

void print_usage() {
  std::printf(
      "sociolearn_cli — drive the distributed learning dynamics from the shell\n\n"
      "subcommands:\n"
      "  bounds     print every theorem constant for given parameters\n"
      "  scenarios  list the named scenarios of the registry\n"
      "  scenario   run a scenario (--name or --file, --set overrides, --probes;\n"
      "             one run per grid point of the --sweep axes)\n"
      "  check-trace  replay a recorded JSONL trace (scenario --trace-out)\n"
      "             against the protocol invariants; exit 1 on violations,\n"
      "             2 when the file cannot be opened or read as a trace\n"
      "  claims     check the paper's claims (claims/*.scn): one verdict row\n"
      "             per (point, expect); exit 1 when any row fails\n"
      "  submit     submit a scenario/sweep to a running sociolearnd\n"
      "             (--socket) and stream its JSONL events\n"
      "  status     query a sociolearnd job by id (--socket --job N)\n"
      "  cancel     cancel a sociolearnd job by id (--socket --job N)\n"
      "  fsck       audit a result store: verify object checksums, find\n"
      "             orphans (--store DIR [--repair]); exit 1 on any finding\n\n"
      "every subcommand but submit, status and cancel (which stream JSONL\n"
      "events) accepts --format table|json|csv; 'scenario' emits one JSON\n"
      "document per run (spec echo + probe results + timing; a --sweep wraps\n"
      "the documents in one array).\n"
      "run 'sociolearn_cli <subcommand> --help' for the flags of each.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    failpoints::init_from_env();  // SGL_FAILPOINTS= (torture testing)
    if (command == "bounds") return cmd_bounds(sub_argc, sub_argv);
    if (command == "scenarios") return cmd_scenarios(sub_argc, sub_argv);
    if (command == "scenario") return cmd_scenario(sub_argc, sub_argv);
    if (command == "check-trace") return cmd_check_trace(sub_argc, sub_argv);
    if (command == "claims") return cmd_claims(sub_argc, sub_argv);
    if (command == "submit") return cmd_submit(sub_argc, sub_argv);
    if (command == "status" || command == "cancel") {
      return cmd_job_op(command.c_str(), sub_argc, sub_argv);
    }
    if (command == "fsck") return cmd_fsck(sub_argc, sub_argv);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage();
      return 0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sociolearn_cli %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n\n", command.c_str());
  print_usage();
  return 2;
}
