// Experiment E2 — Theorem 4.3, part 2 (mass on the best option).
//
// Claim: (1/T)·Σ_t E[P^{t−1}_1] ≥ 1 − 3δ/(η₁−η₂) for T ≥ ln m/δ².
//
// We sweep β and the quality gap, report the time-averaged mass on the best
// option against the paper's lower bound (clamped at 0 where vacuous).

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench_common.h"
#include "core/experiment.h"
#include "core/probe.h"
#include "core/theory.h"
#include "env/reward_model.h"

namespace {

using namespace sgl;

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E2: Time-averaged mass on the best option (Theorem 4.3, part 2)",
      "Claim: avg_t E[P^{t-1}_best] >= 1 - 3*delta/gap once T >= ln(m)/delta^2.");

  constexpr std::size_t m = 3;
  constexpr double eta1 = 0.9;
  text_table table{{"beta", "delta", "gap", "T", "avg best mass", "bound",
                    "informative", "within"}};
  const core::regret_probe prototype;
  const core::probe* probes[] = {&prototype};

  for (const double beta : {0.52, 0.55, 0.6, 0.65, 0.73}) {
    for (const double gap : {0.1, 0.2, 0.4, 0.8}) {
      const core::dynamics_params params = core::theorem_params(m, beta);
      const double bound = core::theory::best_mass_lower_bound(beta, gap);
      core::run_config config;
      config.horizon = static_cast<std::uint64_t>(
          std::ceil(2.0 * std::max(core::theory::min_horizon(m, beta), 8.0)));
      config.replications = options.replications;
      config.seed = options.seed;
      config.threads = options.threads;
      const core::probe_list merged = core::run_with_probes(
          core::make_infinite_engine_factory(params),
          [&] {
            return std::make_unique<env::bernoulli_rewards>(
                std::vector<double>{eta1, eta1 - gap, eta1 - gap});
          },
          config, probes);
      const mean_ci best_mass = confidence_interval(
          dynamic_cast<const core::regret_probe&>(*merged[0]).best_mass_stats());
      table.add_row({fmt(beta, 2), fmt(params.delta(), 3), fmt(gap, 2),
                     std::to_string(config.horizon),
                     fmt_pm(best_mass.mean, best_mass.half_width), fmt(bound, 3),
                     bench::verdict(bound > 0.0),
                     bench::verdict(best_mass.mean + best_mass.half_width >= bound)});
    }
  }
  bench::emit(table, options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e02_best_option_mass", "Theorem 4.3 part 2: best-option mass lower bound", 150);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
