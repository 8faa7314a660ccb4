// Tests for the probe API: the built-in regret/trajectory probes must
// reproduce the pre-redesign numbers EXACTLY (golden values captured from
// the fixed-reduction implementation before probes existed), probes must
// merge deterministically across thread counts, the
// new probes must measure what they claim (the analysis probes by hand on
// one step, and off their engine with zero replications; the coupling
// probe's own suite is coupling_test), every probe's merge must carry all
// of its statistics and tallies, and the probe spec grammar must parse and
// reject correctly.  Every probe is built by name and read
// through its report.

#include "core/probe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/experiment.h"
#include "core/infinite_dynamics.h"
#include "core/params.h"
#include "core/theory.h"
#include "env/reward_model.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"

namespace sgl::core {
namespace {

env_factory bernoulli_factory(std::vector<double> etas) {
  return [etas] { return std::make_unique<env::bernoulli_rewards>(etas); };
}

/// The report of a run with the probe `spec` as its only probe.
probe_report run_report(const engine_factory& engines, const env_factory& envs,
                        const run_config& config, std::string_view spec) {
  const std::unique_ptr<probe> prototype = make_probe(spec);
  const probe* pointers[] = {prototype.get()};
  return run_with_probes(engines, envs, config, pointers)[0]->report();
}

double scalar(const probe_report& report, std::string_view key) {
  const probe_scalar* found = report.find_scalar(key);
  if (found == nullptr) throw std::logic_error{"no scalar " + std::string{key}};
  return found->value;
}

// --- golden equivalence with the pre-redesign fixed reduction ---------------
//
// These constants were printed with %.17g by the seed implementation (the
// hand-rolled reduction of the original fixed-result runner, commit 9959ddf)
// and parse back to the exact doubles it produced.  The probe-based runner
// must match them bit for bit.  A scalar's value is its running mean and its
// half_width the 95% CI's.

TEST(probe_golden, finite_regret_matches_pre_redesign_numbers) {
  run_config config;
  config.horizon = 60;
  config.replications = 24;
  config.seed = 123;
  config.threads = 3;
  const probe_report est = run_report(make_finite_engine_factory(theorem_params(3, 0.65), 400),
                                      bernoulli_factory({0.8, 0.45, 0.4}), config, "regret");

  EXPECT_EQ(scalar(est, "regret"), 0.11268049156909628);
  EXPECT_EQ(est.find_scalar("regret")->half_width, 0.021475501421871532);
  EXPECT_EQ(scalar(est, "average_reward"), 0.68731950843090306);
  EXPECT_EQ(est.find_scalar("average_reward")->half_width, 0.021475501421871535);
  EXPECT_EQ(scalar(est, "best_mass"), 0.72277625267115508);
  EXPECT_EQ(est.find_scalar("best_mass")->half_width, 0.026129920786873245);
  EXPECT_EQ(scalar(est, "final_best_mass"), 0.74980178302420897);
  EXPECT_EQ(est.find_scalar("final_best_mass")->half_width, 0.057725300701185804);
  EXPECT_EQ(scalar(est, "empty_step_fraction"), 0.0);
  EXPECT_EQ(scalar(est, "replications"), 24.0);
}

TEST(probe_golden, infinite_regret_matches_pre_redesign_numbers) {
  run_config config;
  config.horizon = 50;
  config.replications = 16;
  config.seed = 7;
  config.threads = 2;
  const probe_report est = run_report(make_infinite_engine_factory(theorem_params(4, 0.62)),
                                      bernoulli_factory({0.8, 0.4, 0.4, 0.4}), config, "regret");

  EXPECT_EQ(scalar(est, "regret"), 0.11550083862632068);
  EXPECT_EQ(est.find_scalar("regret")->half_width, 0.028754513917564894);
  EXPECT_EQ(scalar(est, "average_reward"), 0.68449916137367917);
  EXPECT_EQ(scalar(est, "best_mass"), 0.69211775996976077);
  EXPECT_EQ(est.find_scalar("best_mass")->half_width, 0.04161534184372806);
  EXPECT_EQ(scalar(est, "final_best_mass"), 0.85030293216284636);
  EXPECT_EQ(est.find_scalar("final_best_mass")->half_width, 0.031665777695948506);
  EXPECT_EQ(scalar(est, "replications"), 16.0);
}

TEST(probe_golden, finite_trajectory_matches_pre_redesign_numbers) {
  run_config config;
  config.horizon = 40;
  config.replications = 10;
  config.seed = 31;
  config.threads = 4;
  const probe_report curves =
      run_report(make_finite_engine_factory(theorem_params(2, 0.62), 250),
                 bernoulli_factory({0.85, 0.35}), config, "trajectory");
  const probe_series* regret = curves.find_series("running_regret_mean");
  const probe_series* regret_width = curves.find_series("running_regret_half_width");
  const probe_series* best = curves.find_series("best_mass_mean");
  const probe_series* best_width = curves.find_series("best_mass_half_width");
  const probe_series* min_popularity = curves.find_series("min_popularity_mean");
  for (const probe_series* series : {regret, regret_width, best, best_width, min_popularity}) {
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->values.size(), 40U);
  }

  EXPECT_EQ(regret->values[0], 0.24999999999999997);
  EXPECT_EQ(regret->values[39], 0.083470043833588622);
  EXPECT_EQ(regret_width->values[39], 0.041483229633138073);
  EXPECT_EQ(best->values[39], 0.91374372553448369);
  EXPECT_EQ(best_width->values[39], 0.03073259684297832);
  EXPECT_EQ(min_popularity->values[39], 0.086256274465516244);
  EXPECT_EQ(scalar(curves, "replications"), 10.0);
}

TEST(probe_golden, ring_scenario_matches_pre_redesign_numbers) {
  run_config config;
  config.horizon = 30;
  config.replications = 8;
  config.seed = 5;
  config.threads = 2;
  const scenario::scenario_spec spec = scenario::get_scenario("ring");
  const std::vector<std::string> regret_only{"regret"};
  const probe_report est = scenario::run_probes(spec, config, regret_only)[0]->report();

  // Rebased once when the ring's v2 loop gave way to the net2 kernel, its
  // only sampler (DESIGN.md, "The one-time golden rebase").
  EXPECT_EQ(scalar(est, "regret"), 0.17430349505358628);
  EXPECT_EQ(est.find_scalar("regret")->half_width, 0.030232891832417865);
  EXPECT_EQ(scalar(est, "average_reward"), 0.6756965049464141);
  EXPECT_EQ(scalar(est, "best_mass"), 0.6912914124455832);
  EXPECT_EQ(scalar(est, "final_best_mass"), 0.6879232231031276);
}

// --- determinism -------------------------------------------------------------

TEST(probe, reports_are_thread_count_independent) {
  const dynamics_params params = theorem_params(2, 0.65);
  const auto envs = bernoulli_factory({0.85, 0.35});
  run_config config;
  config.horizon = 40;
  config.replications = 20;
  config.seed = 77;

  const auto run_at = [&](unsigned threads) {
    run_config c = config;
    c.threads = threads;
    const probe_list prototypes = make_probes(split_probe_specs(
        "regret, hitting_time(eps=0.3), popularity_floor(floor=0.01), final_histogram"));
    std::vector<const probe*> pointers;
    for (const auto& p : prototypes) pointers.push_back(p.get());
    return collect_reports(
        run_with_probes(make_finite_engine_factory(params, 300), envs, c, pointers));
  };

  const auto one = run_at(1);
  const auto eight = run_at(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t p = 0; p < one.size(); ++p) {
    ASSERT_EQ(one[p].scalars.size(), eight[p].scalars.size()) << one[p].probe;
    for (std::size_t s = 0; s < one[p].scalars.size(); ++s) {
      EXPECT_EQ(one[p].scalars[s].value, eight[p].scalars[s].value)
          << one[p].probe << "." << one[p].scalars[s].key;
      EXPECT_EQ(one[p].scalars[s].half_width, eight[p].scalars[s].half_width)
          << one[p].probe << "." << one[p].scalars[s].key;
    }
  }
}

// --- the new probes measure what they claim ---------------------------------

TEST(probe, hitting_time_on_learning_run) {
  const dynamics_params params = theorem_params(2, 0.65);
  run_config config;
  config.horizon = 120;
  config.replications = 10;
  config.seed = 3;
  const probe_report report =
      run_report(make_finite_engine_factory(params, 400), bernoulli_factory({0.9, 0.2}), config,
                 "hitting_time(eps=0.3)");
  // A strongly separated two-option instance concentrates well past 70%.
  EXPECT_EQ(scalar(report, "hit_fraction"), 1.0);
  EXPECT_GE(scalar(report, "hitting_time"), 1.0);
  EXPECT_LT(scalar(report, "hitting_time"), 120.0);
  EXPECT_EQ(scalar(report, "hits"), 10.0);
  EXPECT_EQ(scalar(report, "threshold"), 0.7);
}

TEST(probe, popularity_floor_stays_positive_with_exploration) {
  const dynamics_params params = theorem_params(2, 0.62);
  run_config config;
  config.horizon = 80;
  config.replications = 8;
  config.seed = 11;
  const probe_report report =
      run_report(make_finite_engine_factory(params, 500), bernoulli_factory({0.85, 0.35}),
                 config, "popularity_floor(floor=0)");
  EXPECT_GT(scalar(report, "min_popularity_worst"), 0.0);
  EXPECT_LE(scalar(report, "min_popularity_worst"), scalar(report, "min_popularity"));
  // floor = 0 can never be violated.
  EXPECT_EQ(scalar(report, "violation_rate"), 0.0);
}

TEST(probe, final_histogram_masses_sum_to_one) {
  const dynamics_params params = theorem_params(3, 0.65);
  run_config config;
  config.horizon = 60;
  config.replications = 6;
  config.seed = 21;
  const probe_report report =
      run_report(make_finite_engine_factory(params, 300), bernoulli_factory({0.8, 0.5, 0.3}),
                 config, "final_histogram");
  const probe_series* means = report.find_series("final_popularity_mean");
  ASSERT_NE(means, nullptr);
  ASSERT_EQ(means->values.size(), 3U);
  double total = 0.0;
  for (const double v : means->values) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The best option should dominate the histogram.
  EXPECT_GT(means->values[0], means->values[1]);
  EXPECT_GT(means->values[0], means->values[2]);
}

TEST(probe, recovery_counts_switches_and_measures_recovery) {
  const dynamics_params params = theorem_params(2, 0.65);
  run_config config;
  config.horizon = 240;
  config.replications = 6;
  config.seed = 13;
  const env_factory envs = [] {
    return std::make_unique<env::switching_rewards>(std::vector<double>{0.85, 0.35}, 80);
  };
  const probe_report report =
      run_report(make_finite_engine_factory(params, 500), envs, config, "recovery(eps=0.4)");
  // The best option rotates at t = 80, 160, 240: three switches per
  // replication, every one either recovered or counted unrecovered.
  EXPECT_EQ(scalar(report, "switches"), 6.0 * 3.0);
  EXPECT_EQ(scalar(report, "switches"),
            scalar(report, "recovered") + scalar(report, "unrecovered"));
  EXPECT_GT(scalar(report, "recovered"), 0.0);
  EXPECT_GT(scalar(report, "recovery_time"), 0.0);
}

TEST(probe, deterministic_schedule_never_recovers_when_threshold_unreachable) {
  // alpha = beta = 0.5 is signal-blind: mass stays diffuse, so a 0.99
  // threshold is never reached and every switch counts as unrecovered.
  dynamics_params params = theorem_params(2, 0.65);
  params.alpha = 0.5;
  params.beta = 0.5;
  run_config config;
  config.horizon = 100;
  config.replications = 4;
  config.seed = 17;
  const env_factory envs = [] {
    return std::make_unique<env::switching_rewards>(std::vector<double>{0.85, 0.35}, 40);
  };
  const probe_report report =
      run_report(make_finite_engine_factory(params, 100), envs, config, "recovery(eps=0.01)");
  EXPECT_EQ(scalar(report, "recovered"), 0.0);
  EXPECT_EQ(scalar(report, "unrecovered"), scalar(report, "switches"));
  EXPECT_GT(scalar(report, "switches"), 0.0);
}

// --- the analysis probes ----------------------------------------------------

/// Feeds `engine`'s next step, on `rewards`, to `target` as the runner would.
void step_into(probe& target, dynamics_engine& engine, const env::reward_model& environment,
               std::span<const std::uint8_t> rewards, std::uint64_t t, rng& gen) {
  const std::vector<double> before(engine.popularity().begin(), engine.popularity().end());
  engine.step(rewards, gen);
  target.on_step({.t = t, .horizon = 1, .popularity_before = before, .rewards = rewards,
                  .engine = engine, .environment = environment});
}

TEST(analysis_probes, report_zero_replications_off_their_engine_with_every_key) {
  const dynamics_params params = theorem_params(2, 0.62);
  run_config config;
  config.horizon = 5;
  config.replications = 3;
  config.seed = 1;
  const auto envs = bernoulli_factory({0.8, 0.4});
  const probe_report concentration =
      run_report(make_infinite_engine_factory(params), envs, config, "concentration");
  const probe_report coupling =
      run_report(make_infinite_engine_factory(params), envs, config, "coupling");
  const probe_report audit =
      run_report(make_finite_engine_factory(params, 1000), envs, config, "proof_audit");
  for (const auto& [report, keys] :
       {std::pair{concentration, std::vector<std::string>{"stage1", "stage2", "combined"}},
        std::pair{coupling,
                  std::vector<std::string>{"deviation", "deviation_max", "capped_steps",
                                           "within_bound", "sampling_sd_sqrt_n"}},
        std::pair{audit, std::vector<std::string>{"min_slack"}}}) {
    EXPECT_EQ(scalar(report, "replications"), 0.0) << report.probe;
    for (const std::string& key : keys) {
      EXPECT_NE(report.find_scalar(key), nullptr) << report.probe << "." << key;
    }
  }

  // The proof audit also needs the uniform start and the theorem regime.
  const std::vector<double> start{0.9, 0.1};
  EXPECT_EQ(scalar(run_report(make_infinite_engine_factory(params, start), envs, config,
                              "proof_audit"),
                   "replications"),
            0.0);
  dynamics_params outside = params;
  outside.beta = 0.8;  // above e/(e+1)
  EXPECT_EQ(scalar(run_report(make_infinite_engine_factory(outside), envs, config,
                              "proof_audit"),
                   "replications"),
            0.0);
  EXPECT_EQ(scalar(run_report(make_infinite_engine_factory(params), envs, config,
                              "proof_audit"),
                   "replications"),
            3.0);
}

// The analysis probes read the one rule group's (alpha, beta), so they
// measure a one-group `engine = "grouped"` spec exactly as its aggregate
// twin, and a mixture (which has no single rule) not at all.
TEST(analysis_probes, single_group_grouped_spec_reports_like_its_aggregate_twin) {
  const scenario::scenario_spec aggregate = scenario::get_scenario("theorem-finite");
  scenario::scenario_spec grouped = aggregate;
  grouped.engine = scenario::engine_kind::grouped;
  grouped.groups = {
      {aggregate.num_agents, {aggregate.params.resolved_alpha(), aggregate.params.beta}}};
  run_config config;
  config.horizon = 20;
  config.replications = 4;
  config.seed = 3;
  const std::vector<std::string> probes{"concentration", "coupling"};

  const auto expected = collect_reports(scenario::run_probes(aggregate, config, probes));
  const auto actual = collect_reports(scenario::run_probes(grouped, config, probes));
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(scalar(actual[i], "replications"), 4.0) << actual[i].probe;
    ASSERT_EQ(actual[i].scalars.size(), expected[i].scalars.size()) << actual[i].probe;
    for (std::size_t k = 0; k < expected[i].scalars.size(); ++k) {
      const probe_scalar& want = expected[i].scalars[k];
      const probe_scalar& got = actual[i].scalars[k];
      EXPECT_EQ(got.key, want.key) << actual[i].probe;
      EXPECT_EQ(got.value, want.value) << actual[i].probe << "." << want.key;
      EXPECT_EQ(got.half_width, want.half_width) << actual[i].probe << "." << want.key;
    }
  }

  grouped.groups = {{600, {0.38, 0.62}}, {400, {0.1, 0.9}}};
  for (const probe_report& report :
       collect_reports(scenario::run_probes(grouped, config, probes))) {
    EXPECT_EQ(scalar(report, "replications"), 0.0) << report.probe;
  }
}

TEST(analysis_probes, concentration_one_step_by_hand) {
  const dynamics_params params = theorem_params(3, 0.62);
  constexpr std::uint64_t n = 5000;
  aggregate_dynamics engine{params, n};
  const env::bernoulli_rewards environment{{0.8, 0.4, 0.4}};
  const std::vector<std::uint8_t> rewards{1, 0, 1};
  rng gen{7};
  const std::unique_ptr<probe> audited = make_probe("concentration");
  audited->begin_replication(1);
  step_into(*audited, engine, environment, rewards, 1, gen);
  audited->end_replication(engine, environment, 1);

  // From the uniform start E[S_j] = N/m; g_j = beta on a good signal,
  // alpha = 1 - beta on a bad one.
  const double expected = static_cast<double>(n) / 3.0;
  const double dp = theory::delta_prime(3, params.mu, n);
  const double ddp = theory::delta_double_prime(3, params.mu, params.beta, n);
  double stage1 = 0.0;
  double stage2 = 0.0;
  double combined = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    const double s = static_cast<double>(engine.stage_counts()[j]);
    const double d = static_cast<double>(engine.adopter_counts()[j]);
    const double g = rewards[j] != 0 ? 0.62 : 1.0 - 0.62;
    stage1 = std::max(stage1, std::abs(s / expected - 1.0) / (2.0 * dp));
    stage2 = std::max(stage2, std::abs(d / (s * g) - 1.0) / (2.0 * ddp));
    combined = std::max(combined, std::abs(d / (expected * g) - 1.0) / (6.0 * ddp));
  }
  const probe_report report = audited->report();
  EXPECT_NEAR(scalar(report, "stage1"), stage1, 1e-12);
  EXPECT_NEAR(scalar(report, "stage2"), stage2, 1e-12);
  EXPECT_NEAR(scalar(report, "combined"), combined, 1e-12);
  EXPECT_EQ(scalar(report, "replications"), 1.0);
  EXPECT_GT(stage1, 0.0);
  EXPECT_LT(combined, 1.0);
}

TEST(analysis_probes, proof_audit_one_step_by_hand) {
  constexpr double beta = 0.62;
  const dynamics_params params = theorem_params(2, beta);
  infinite_dynamics engine{params};
  const env::bernoulli_rewards environment{{0.8, 0.4}};
  const std::vector<std::uint8_t> rewards{1, 0};
  rng gen{1};
  const std::unique_ptr<probe> audited = make_probe("proof_audit");
  audited->begin_replication(1);
  step_into(*audited, engine, environment, rewards, 1, gen);
  audited->end_replication(engine, environment, 1);

  // From W^0 = (1, 1) one step gives W^1 = (beta, 1 - beta): ln Phi^1 = 0.
  // With <P^0, R^1> = 1/2 and R^1_1 = 1 the three slacks of §5 are:
  const double mu = params.mu;
  const double delta = params.delta();
  const double delta_prime = (1.0 - mu) * std::expm1(delta) / (1.0 + mu * delta);
  const double upper =
      std::log(2.0) + std::log(1.0 - beta) + std::log1p(mu * std::expm1(delta)) +
      delta_prime * 0.5;
  const double lower = -(std::log(1.0 - beta) + std::log1p(-mu) + delta);
  const double regret = std::log(2.0) + delta * delta + 6.0 * mu - delta * 0.5;
  const probe_report report = audited->report();
  EXPECT_NEAR(scalar(report, "min_slack"), std::min({upper, lower, regret}), 1e-12);
  EXPECT_GT(scalar(report, "min_slack"), 0.0);
  EXPECT_EQ(scalar(report, "replications"), 1.0);
}

// --- probes never consume the RNG stream ------------------------------------

TEST(probe, adding_probes_does_not_change_results) {
  const dynamics_params params = theorem_params(2, 0.65);
  const auto envs = bernoulli_factory({0.85, 0.35});
  run_config config;
  config.horizon = 50;
  config.replications = 8;
  config.seed = 41;

  const probe_report bare =
      run_report(make_finite_engine_factory(params, 200), envs, config, "regret");
  const probe_list prototypes = make_probes(
      split_probe_specs("regret, hitting_time(eps=0.2), trajectory, final_histogram"));
  std::vector<const probe*> pointers;
  for (const auto& p : prototypes) pointers.push_back(p.get());
  const probe_report full =
      run_with_probes(make_finite_engine_factory(params, 200), envs, config, pointers)[0]
          ->report();

  EXPECT_EQ(scalar(bare, "regret"), scalar(full, "regret"));
  EXPECT_EQ(scalar(bare, "final_best_mass"), scalar(full, "final_best_mass"));
}

// --- scenario-level probe selection -----------------------------------------

TEST(probe, scenario_run_probes_uses_spec_defaults_then_fallback) {
  scenario::scenario_spec spec = scenario::get_scenario("switching_recovery");
  run_config config;
  config.horizon = 40;
  config.replications = 2;
  config.seed = 1;
  config.threads = 1;

  const auto defaults = scenario::run_probes(spec, config);
  ASSERT_EQ(defaults.size(), 2U);  // the spec's {regret, recovery(eps=0.4)}
  EXPECT_EQ(defaults[0]->name(), "regret");
  EXPECT_EQ(defaults[1]->name(), "recovery");

  spec.probes.clear();
  const auto fallback = scenario::run_probes(spec, config);
  ASSERT_EQ(fallback.size(), 1U);
  EXPECT_EQ(fallback[0]->name(), "regret");

  const std::vector<std::string> chosen{"final_histogram"};
  const auto explicit_choice = scenario::run_probes(spec, config, chosen);
  ASSERT_EQ(explicit_choice.size(), 1U);
  EXPECT_EQ(explicit_choice[0]->name(), "final_histogram");
}

// --- merge completeness -----------------------------------------------------
//
// A merge that forgets one statistic or tally still reports plausible
// numbers, so nothing else notices it.  Folding a run's accumulator into an
// empty clone, or an empty clone into it, must leave its report unchanged
// bit for bit — every statistic and tally has to travel.

/// The probe names make_probe's unknown-probe error lists, in its order.
std::vector<std::string> known_probe_names() {
  try {
    (void)make_probe("no_such_probe");
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    const std::string marker = "; known:";
    std::istringstream names{message.substr(message.find(marker) + marker.size())};
    return {std::istream_iterator<std::string>{names}, std::istream_iterator<std::string>{}};
  }
  throw std::logic_error{"make_probe accepted no_such_probe"};
}

void expect_identical_reports(const probe_report& got, const probe_report& want,
                              std::string_view what) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(got.probe, want.probe) << what;
  ASSERT_EQ(got.scalars.size(), want.scalars.size()) << what;
  for (std::size_t k = 0; k < want.scalars.size(); ++k) {
    const probe_scalar& g = got.scalars[k];
    const probe_scalar& w = want.scalars[k];
    EXPECT_EQ(g.key, w.key) << what;
    EXPECT_EQ(bits(g.value), bits(w.value)) << what << " " << w.key;
    EXPECT_EQ(bits(g.half_width), bits(w.half_width)) << what << " " << w.key;
    EXPECT_EQ(g.has_ci, w.has_ci) << what << " " << w.key;
    EXPECT_EQ(g.samples, w.samples) << what << " " << w.key;
  }
  ASSERT_EQ(got.series.size(), want.series.size()) << what;
  for (std::size_t k = 0; k < want.series.size(); ++k) {
    EXPECT_EQ(got.series[k].key, want.series[k].key) << what;
    ASSERT_EQ(got.series[k].values.size(), want.series[k].values.size()) << what;
    for (std::size_t i = 0; i < want.series[k].values.size(); ++i) {
      EXPECT_EQ(bits(got.series[k].values[i]), bits(want.series[k].values[i]))
          << what << " " << want.series[k].key << "[" << i << "]";
    }
  }
}

TEST(probe_merge, an_empty_side_leaves_every_statistic_and_tally_unchanged) {
  // Each probe on a spec it applies to (the partition heals at round 25).
  struct target {
    std::string probe;
    std::string_view scenario;
    std::string_view override_assignment;  // empty: none
  };
  const std::vector<target> targets{
      {"regret", "quickstart", ""},
      {"trajectory", "quickstart", ""},
      {"hitting_time", "quickstart", ""},
      {"popularity_floor", "quickstart", ""},
      {"final_histogram", "quickstart", ""},
      {"recovery", "switching_recovery", "environment.period=20"},
      {"concentration", "theorem-finite", ""},
      {"coupling", "theorem-finite", ""},
      {"proof_audit", "theorem-infinite", ""},
      {"message_cost", "gossip_partition_heal", ""},
      {"commit_latency", "gossip_partition_heal", ""},
      {"adoption", "gossip_partition_heal", ""},
      {"partition_divergence", "gossip_partition_heal", ""},
  };
  std::vector<std::string> names;
  for (const target& t : targets) names.push_back(t.probe);
  ASSERT_EQ(names, known_probe_names()) << "a probe make_probe knows is not covered here";

  run_config config;
  config.horizon = 40;
  config.seed = 11;
  constexpr std::uint64_t replications = 3;
  for (const target& t : targets) {
    scenario::scenario_spec spec = scenario::get_scenario(t.scenario);
    if (!t.override_assignment.empty()) scenario::apply_override(spec, t.override_assignment);
    replication_context context{scenario::make_engine(spec),
                                scenario::make_environment(spec.environment)};
    const std::unique_ptr<probe> prototype = make_probe(t.probe);
    probe_list ran;
    ran.push_back(prototype->clone());
    for (std::uint64_t r = 0; r < replications; ++r) context.run(config, r, ran);
    const probe_report want = ran[0]->report();

    // Not vacuous: the run counted something (recovery reports switches,
    // not replications).
    const probe_scalar* counted = want.find_scalar("replications");
    if (counted == nullptr) counted = want.find_scalar("switches");
    ASSERT_NE(counted, nullptr) << t.probe;
    EXPECT_GE(counted->value, 1.0) << t.probe << "." << counted->key;

    const std::unique_ptr<probe> fresh = prototype->clone();
    fresh->merge(*ran[0]);
    expect_identical_reports(fresh->report(), want, t.probe + ": fresh.merge(ran)");
    ran[0]->merge(*prototype->clone());
    expect_identical_reports(ran[0]->report(), want, t.probe + ": ran.merge(fresh)");
  }
}

// --- the spec grammar -------------------------------------------------------

TEST(probe_grammar, parses_names_and_arguments) {
  // Every known probe round-trips its name, through name() and its report.
  for (const std::string_view name :
       {"regret", "trajectory", "hitting_time", "popularity_floor", "final_histogram",
        "recovery", "concentration", "coupling", "proof_audit", "message_cost",
        "commit_latency", "adoption", "partition_divergence"}) {
    const std::unique_ptr<probe> built = make_probe(name);
    EXPECT_EQ(built->name(), name);
    EXPECT_EQ(built->report().probe, name);
  }

  EXPECT_EQ(make_probe(" trajectory ")->name(), "trajectory");
  EXPECT_EQ(make_probe("hitting_time(eps=0.25)")->name(), "hitting_time");
  EXPECT_EQ(make_probe("recovery( eps = 0.3 )")->name(), "recovery");
  EXPECT_EQ(make_probe("popularity_floor(floor=0.001)")->name(), "popularity_floor");

  const auto list =
      make_probes(split_probe_specs("regret, hitting_time(eps=0.1), final_histogram"));
  ASSERT_EQ(list.size(), 3U);
  EXPECT_EQ(list[0]->name(), "regret");
  EXPECT_EQ(list[1]->name(), "hitting_time");
  EXPECT_EQ(list[2]->name(), "final_histogram");
}

TEST(probe_grammar, rejects_bad_specs) {
  EXPECT_THROW((void)make_probe("no_such_probe"), std::invalid_argument);
  EXPECT_THROW((void)make_probe("hitting_time(eps=0.1"), std::invalid_argument);
  EXPECT_THROW((void)make_probe("hitting_time(threshold=0.9)"), std::invalid_argument);
  EXPECT_THROW((void)make_probe("hitting_time(eps=zero)"), std::invalid_argument);
  EXPECT_THROW((void)make_probe("hitting_time(eps=2.0)"), std::invalid_argument);
  EXPECT_THROW((void)make_probe("regret(eps=0.1)"), std::invalid_argument);
  EXPECT_TRUE(make_probes(split_probe_specs("")).empty());
  for (const char* bad : {"concentration(eps=0.1)", "coupling(cap=5)", "proof_audit(x=1)"}) {
    EXPECT_THROW((void)make_probe(bad), std::invalid_argument) << bad;
  }

  // partition_divergence's eps is checked like hitting_time's and recovery's;
  // `nan` is not a JSON number, so it is refused before the range check.
  try {
    (void)make_probe("partition_divergence(eps=nan)");
    ADD_FAILURE() << "accepted eps=nan";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find(
                  "probe 'partition_divergence(eps=nan)': bad numeric value 'nan'"),
              std::string::npos)
        << error.what();
  }
  for (const char* bad : {"partition_divergence(eps=-3)", "partition_divergence(eps=0)",
                          "partition_divergence(eps=1)"}) {
    try {
      (void)make_probe(bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("partition_divergence: eps must be in (0,1)"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_EQ(make_probe("partition_divergence(eps=0.2)")->name(), "partition_divergence");

  // Typos suggest the nearest known probe.
  try {
    (void)make_probe("hitting_tme");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("hitting_time"), std::string::npos);
  }
}

}  // namespace
}  // namespace sgl::core
