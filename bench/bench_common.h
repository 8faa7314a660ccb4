#pragma once

/// \file bench_common.h
/// Shared scaffolding for the experiment binaries whose math is not one
/// probe scalar against a bound: e04 (coupling), e05 (per-step
/// concentration), e09/e10 (Hedge and bandit baselines), e11 (topology
/// table), e12 (Markov environment), e13 (Ellison–Fudenberg direct model),
/// e16 (mean field and proof audit), e17/e18 (time-series analysis).  The
/// claims that are one scalar against a bound are data instead:
/// claims/*.scn, run by `sociolearn_cli claims`.
///
/// The helpers: a standard flag set, a header banner tying the binary to
/// its paper claim, and table output.  Every binary accepts
/// --reps/--seed/--threads/--quick and prints the table or series its
/// experiment reproduces; where the paper states a bound, the table prints
/// it next to the measurement, usually with a yes/NO verdict column.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "support/flags.h"
#include "support/table.h"

namespace sgl::bench {

struct standard_options {
  std::uint64_t replications = 0;
  std::uint64_t seed = 0;
  unsigned threads = 0;
  bool quick = false;
  bool csv = false;
};

/// Builds the common flag set.  `default_reps` is the full-fidelity default;
/// --quick divides it by 4 (min 8).
inline flag_set make_standard_flags(const std::string& program,
                                    const std::string& description,
                                    std::int64_t default_reps) {
  flag_set flags{program, description};
  flags.add_int64("reps", default_reps, "Monte-Carlo replications");
  flags.add_int64("seed", 1, "master RNG seed");
  flags.add_int64("threads", 0, "worker threads (0 = all cores)");
  flags.add_bool("quick", false, "reduced replication count");
  flags.add_bool("csv", false, "also emit the table as CSV");
  return flags;
}

/// Parses and extracts the standard options; returns false if the program
/// should exit (help/error), with the exit code in `exit_code`.
inline bool parse_standard(flag_set& flags, int argc, const char* const* argv,
                           standard_options& options, int& exit_code) {
  switch (flags.parse(argc, argv)) {
    case parse_status::help:
      exit_code = 0;
      return false;
    case parse_status::error:
      exit_code = 2;
      return false;
    case parse_status::ok:
      break;
  }
  options.replications = static_cast<std::uint64_t>(flags.get_int64("reps"));
  options.seed = static_cast<std::uint64_t>(flags.get_int64("seed"));
  options.threads = static_cast<unsigned>(flags.get_int64("threads"));
  options.quick = flags.get_bool("quick");
  options.csv = flags.get_bool("csv");
  if (options.quick) {
    options.replications = std::max<std::uint64_t>(8, options.replications / 4);
  }
  return true;
}

/// Prints the experiment banner.
inline void print_banner(const std::string& experiment_id, const std::string& claim) {
  std::printf("=== %s ===\n%s\n\n", experiment_id.c_str(), claim.c_str());
}

/// Prints the table (and CSV when requested).
inline void emit(const text_table& table, const standard_options& options) {
  table.print(std::cout);
  if (options.csv) {
    std::printf("\n--- csv ---\n");
    table.write_csv(std::cout);
  }
  std::printf("\n");
}

/// "yes"/"NO" verdict cell.
inline std::string verdict(bool ok) { return ok ? "yes" : "NO"; }

}  // namespace sgl::bench
