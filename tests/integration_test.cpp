// Cross-module integration tests: epoch restarts, the Ellison–Fudenberg
// reduction end-to-end, group-vs-individual learning, ablations, and the
// gossip protocol against the synchronous dynamics it implements.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/experiment.h"
#include "core/params.h"
#include "core/probe.h"
#include "core/theory.h"
#include "env/ef_model.h"
#include "env/reward_model.h"
#include "scenario/scenario.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl {
namespace {

/// The regret probe's report on the exact aggregate finite dynamics.
core::probe_report finite_regret(const core::dynamics_params& params,
                                 std::uint64_t num_agents, const core::env_factory& envs,
                                 const core::run_config& config) {
  const std::unique_ptr<core::probe> prototype = core::make_probe("regret");
  const core::probe* probes[] = {prototype.get()};
  return core::run_with_probes(core::make_finite_engine_factory(params, num_agents), envs,
                               config, probes)[0]
      ->report();
}

TEST(integration, epoch_restart_preserves_learning) {
  // The large-T proof restarts analysis at epoch boundaries from the current
  // adopter counts.  Exercise that pathway: run, snapshot, restart, run.
  const core::dynamics_params params = core::theorem_params(3, 0.62);
  rng process_gen = rng::from_stream(1, 0);
  rng env_gen = rng::from_stream(1, 1);
  env::bernoulli_rewards environment{{0.85, 0.35, 0.35}};
  std::vector<std::uint8_t> r(3);

  core::aggregate_dynamics first_epoch{params, 10000};
  for (std::uint64_t t = 1; t <= 200; ++t) {
    environment.sample(t, env_gen, r);
    first_epoch.step(r, process_gen);
  }
  const double mass_at_boundary = first_epoch.popularity()[0];
  EXPECT_GT(mass_at_boundary, 0.5);

  core::aggregate_dynamics second_epoch{params, 10000, first_epoch.adopter_counts()};
  EXPECT_NEAR(second_epoch.popularity()[0], mass_at_boundary, 1e-12);

  running_stats late;
  for (std::uint64_t t = 201; t <= 400; ++t) {
    environment.sample(t, env_gen, r);
    second_epoch.step(r, process_gen);
    late.add(second_epoch.popularity()[0]);
  }
  EXPECT_GT(late.mean(), 0.6) << "learning survives the epoch restart";
}

TEST(integration, ef_direct_and_reduced_models_agree) {
  // The reduction behind claims/ex_word_of_mouth.scn's literals: simulate
  // the continuous-shock EF model directly, and the reduced binary
  // (η, α, β) dynamics, and compare the long-run popularity of the better
  // option.
  env::ef_params ef;
  ef.mean1 = 0.65;
  ef.mean2 = 0.45;
  ef.reward_sd = 0.25;
  ef.shock_sd = 0.2;
  const env::ef_reduction reduced = env::reduce_ef_model(ef);

  constexpr std::size_t n = 400;
  constexpr std::uint64_t horizon = 250;
  constexpr int reps = 60;
  const double mu = 0.05;

  running_stats direct_mass;
  running_stats reduced_mass;
  for (int rep = 0; rep < reps; ++rep) {
    // Direct shock-level simulation.
    env::ef_direct_dynamics direct{ef, n, mu};
    rng reward_gen = rng::from_stream(2, static_cast<std::uint64_t>(3 * rep));
    rng pop_gen = rng::from_stream(2, static_cast<std::uint64_t>(3 * rep + 1));
    running_stats late_direct;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      direct.step(reward_gen, pop_gen);
      if (t > horizon / 2) late_direct.add(direct.popularity()[0]);
    }
    direct_mass.add(late_direct.mean());

    // Reduced binary dynamics on exclusive rewards with the mapped (α, β).
    core::dynamics_params params;
    params.num_options = 2;
    params.mu = mu;
    params.beta = reduced.beta;
    params.alpha = reduced.alpha;
    core::aggregate_dynamics binary{params, n};
    env::exclusive_rewards environment{{reduced.eta1, reduced.eta2}};
    rng env_gen = rng::from_stream(2, static_cast<std::uint64_t>(3 * rep + 2));
    rng bin_gen = rng::from_stream(3, static_cast<std::uint64_t>(rep));
    std::vector<std::uint8_t> r(2);
    running_stats late_reduced;
    for (std::uint64_t t = 1; t <= horizon; ++t) {
      environment.sample(t, env_gen, r);
      binary.step(r, bin_gen);
      if (t > horizon / 2) late_reduced.add(binary.popularity()[0]);
    }
    reduced_mass.add(late_reduced.mean());
  }
  // Both should favour option 1 and agree closely on average.
  EXPECT_GT(direct_mass.mean(), 0.55);
  EXPECT_GT(reduced_mass.mean(), 0.55);
  EXPECT_NEAR(direct_mass.mean(), reduced_mass.mean(), 0.06);
}

TEST(integration, ablations_fail_where_the_paper_says_they_fail) {
  // §3: sampling-only or adoption-only is not enough.
  const std::vector<double> etas{0.85, 0.35};
  core::run_config config;
  config.horizon = 300;
  config.replications = 80;
  config.seed = 8;
  const core::env_factory factory = [&] {
    return std::make_unique<env::bernoulli_rewards>(etas);
  };

  const core::probe_scalar full =
      *finite_regret(core::theorem_params(2, 0.65), 2000, factory, config).find_scalar("regret");

  // Pure copying: adoption blind to signals (β = α = 1).
  core::dynamics_params copy_only;
  copy_only.num_options = 2;
  copy_only.mu = 0.0;
  copy_only.beta = 1.0;
  copy_only.alpha = 1.0;
  const core::probe_report copying = finite_regret(copy_only, 2000, factory, config);
  const core::probe_scalar& copying_regret = *copying.find_scalar("regret");

  // No social sampling: μ = 1 (uniform consideration forever).
  core::dynamics_params no_social;
  no_social.num_options = 2;
  no_social.mu = 1.0;
  no_social.beta = 0.65;
  const core::probe_scalar solo =
      *finite_regret(no_social, 2000, factory, config).find_scalar("regret");

  EXPECT_LT(full.value, copying_regret.value - copying_regret.half_width)
      << "signal-blind copying cannot identify the best option";
  EXPECT_LT(full.value, solo.value - solo.half_width)
      << "without social sampling the population never concentrates";
  // Pure copying fixates at the uniform average reward in expectation.
  EXPECT_NEAR(copying.find_scalar("average_reward")->value, 0.6, 0.05);
}

TEST(integration, gossip_protocol_matches_synchronous_dynamics) {
  // The asynchronous protocol and the synchronous finite dynamics are the
  // same algorithm; their converged best-option shares must be similar.
  scenario::scenario_spec spec;
  spec.name = "sync";
  spec.params = core::theorem_params(2, 0.65);
  spec.num_agents = 300;
  spec.environment.etas = {0.85, 0.35};
  core::run_config config;
  config.horizon = 200;
  config.replications = 40;
  config.seed = 10;
  const std::vector<std::string> regret_only{"regret"};
  const double sync_final = scenario::run_probes(spec, config, regret_only)[0]
                                ->report()
                                .find_scalar("final_best_mass")
                                ->value;

  spec.name = "async";
  spec.engine = scenario::engine_kind::protocol;
  config.replications = 4;
  config.seed = 9;
  const std::vector<std::string> curves_only{"trajectory"};
  const core::probe_report async = scenario::run_probes(spec, config, curves_only)[0]->report();
  const std::vector<double>& best = async.find_series("best_mass_mean")->values;
  running_stats async_late;
  for (std::size_t t = 150; t < 200; ++t) async_late.add(best[t]);

  EXPECT_NEAR(async_late.mean(), sync_final, 0.15);
  EXPECT_GT(async_late.mean(), 0.6);
}

TEST(integration, measured_regret_consistent_with_theory_kit) {
  // End-to-end: parameters built by theorem_params satisfy the hypotheses,
  // and the measured regret honours the matching bound.
  for (const double beta : {0.58, 0.66}) {
    const core::dynamics_params params = core::theorem_params(6, beta);
    ASSERT_TRUE(params.satisfies_theorem_conditions());
    core::run_config config;
    config.horizon = static_cast<std::uint64_t>(
        std::ceil(std::max(core::theory::min_horizon(6, beta), 10.0)));
    config.replications = 80;
    config.seed = 11;
    const core::probe_scalar regret =
        *finite_regret(params, 20000,
                       [] {
                         return std::make_unique<env::bernoulli_rewards>(
                             env::two_level_etas(6, 0.85, 0.35));
                       },
                       config)
             .find_scalar("regret");
    EXPECT_LE(regret.value - regret.half_width, core::theory::finite_regret_bound(beta));
  }
}

}  // namespace
}  // namespace sgl
