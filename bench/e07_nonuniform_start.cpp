// Experiment E7 — Theorem 4.6 (nonuniform starts / the epoch engine).
//
// Claim: if P⁰_j ≥ ζ for all j, then for T ≥ ln(1/ζ)/δ² the regret is
// still ≤ 3δ.  This is the workhorse behind the large-T epoch argument of
// Theorem 4.4: each epoch restarts from a ζ-floored distribution.
//
// We start the infinite dynamics from the *hostile* ζ-floor state (all but
// ζ(m−1) of the mass on the worst option) and sweep ζ.

#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/probe.h"
#include "core/theory.h"
#include "env/reward_model.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace {

using namespace sgl;

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E7: Regret from nonuniform starts (Theorem 4.6)",
      "Claim: min_j P^0_j >= zeta implies Regret_inf(T) <= 3*delta once "
      "T >= ln(1/zeta)/delta^2, even from the most hostile such start.");

  constexpr std::size_t m = 5;
  text_table table{{"beta", "zeta", "T(zeta)", "T", "Regret_inf", "bound 3d",
                    "within"}};
  const std::vector<std::string> regret_only{"regret"};

  for (const double beta : {0.6, 0.65}) {
    // The registered hostile-start scenario, re-parameterized per sweep cell.
    scenario::scenario_spec spec = scenario::get_scenario("nonuniform-start");
    spec.params = core::theorem_params(m, beta);
    spec.environment.etas = env::two_level_etas(m, 0.85, 0.35);
    const double bound = core::theory::infinite_regret_bound(beta);

    for (const double zeta : {0.05, 0.01, 0.001}) {
      // Hostile ζ-floor start: the bulk of the mass on the worst option.
      spec.start.assign(m, zeta);
      spec.start[m - 1] = 1.0 - zeta * static_cast<double>(m - 1);

      const auto t_zeta = static_cast<std::uint64_t>(
          std::ceil(std::max(core::theory::nonuniform_min_horizon(zeta, beta), 8.0)));
      for (const std::uint64_t multiple : {1ULL, 4ULL}) {
        core::run_config config;
        config.horizon = t_zeta * multiple;
        config.replications = options.replications;
        config.seed = options.seed;
        config.threads = options.threads;
        const core::probe_list merged = scenario::run_probes(spec, config, regret_only);
        const mean_ci regret = confidence_interval(
            dynamic_cast<const core::regret_probe&>(*merged[0]).regret_stats());
        table.add_row({fmt(beta, 2), fmt(zeta, 3), std::to_string(t_zeta),
                       std::to_string(config.horizon), fmt_pm(regret.mean, regret.half_width),
                       fmt(bound, 3), bench::verdict(regret.mean - regret.half_width <= bound)});
      }
    }
  }
  bench::emit(table, options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e07_nonuniform_start", "Theorem 4.6: regret from zeta-floored starts", 150);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
