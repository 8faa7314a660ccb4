// Quickstart: the distributed learning dynamics through the library API.
//
// A group of 1000 individuals repeatedly picks between 4 options with
// unknown qualities.  Each step every individual (1) copies a random group
// member's choice (or explores with probability mu), then (2) commits to
// the observed option with probability beta if its shared quality signal
// was good, alpha if bad.  Nobody stores anything but their current choice,
// yet the group finds the best option.
//
// The run is the catalog's "quickstart" scenario (scenarios/quickstart.scn)
// under the Monte-Carlo runner: 50 replications of 200 steps, measuring the
// regret and the consensus hitting time in one pass.  The CLI runs the
// same thing as
//   sociolearn_cli scenario --name quickstart --horizon 200 --reps 50 \
//       --probes 'regret,hitting_time(eps=0.3)'
// Every other run is a spec too: claims/*.scn states the paper's claims
// (and the §2.1 instantiations) as scenario files with checked bounds.
//
// Build & run:  cmake --build build && ./build/quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "core/probe.h"
#include "core/theory.h"
#include "scenario/registry.h"

int main() {
  using namespace sgl;

  const scenario::scenario_spec spec = scenario::get_scenario("quickstart");
  const core::dynamics_params& params = spec.params;
  std::printf("%s\n", spec.description.c_str());
  std::printf("m=%zu options, beta=%.2f, alpha=%.2f, mu=%.4f, delta=%.3f\n",
              params.num_options, params.beta, params.resolved_alpha(), params.mu,
              params.delta());
  std::printf("paper bounds: Regret_inf <= %.3f, Regret_N <= %.3f\n\n",
              core::theory::infinite_regret_bound(params.beta),
              core::theory::finite_regret_bound(params.beta));

  core::run_config config;
  config.horizon = 200;
  config.replications = 50;
  const std::vector<std::string> probes{"regret", "hitting_time(eps=0.3)"};
  for (const core::probe_report& report :
       core::collect_reports(scenario::run_probes(spec, config, probes))) {
    std::printf("probe %s\n", report.probe.c_str());
    for (const core::probe_scalar& scalar : report.scalars) {
      if (scalar.has_ci) {
        std::printf("  %-20s %.4f +- %.4f\n", scalar.key.c_str(), scalar.value,
                    scalar.half_width);
      } else {
        std::printf("  %-20s %.4f\n", scalar.key.c_str(), scalar.value);
      }
    }
  }
  return 0;
}
