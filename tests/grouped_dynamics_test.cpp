// Tests for aggregate_dynamics over rule-group mixtures (engine = "grouped"),
// including the distribution-equality check against the agent-based engine
// with the same group assignment — the heterogeneous analogue of the
// homogeneous law tests in aggregate_dynamics_test.  The groups carry the
// rules, so the params' beta (0.65 here) is unused.

#include "core/aggregate_dynamics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "core/finite_dynamics.h"
#include "core/params.h"
#include "identical_agents.h"
#include "support/gof.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl::core {
namespace {

dynamics_params make_params(std::size_t m, double mu, double beta) {
  dynamics_params p;
  p.num_options = m;
  p.mu = mu;
  p.beta = beta;
  return p;
}

TEST(aggregate_mixture, construction_and_validation) {
  const std::vector<rule_group> groups{{100, {0.3, 0.7}}, {50, {0.0, 1.0}}};
  aggregate_dynamics dyn{make_params(3, 0.1, 0.65), groups};
  EXPECT_EQ(dyn.num_agents(), 150U);
  EXPECT_EQ(dyn.groups().size(), 2U);
  EXPECT_DOUBLE_EQ(dyn.popularity()[0], 1.0 / 3.0);

  EXPECT_THROW((aggregate_dynamics{make_params(2, 0.1, 0.65), std::vector<rule_group>{}}),
               std::invalid_argument);
  EXPECT_THROW((aggregate_dynamics{make_params(2, 0.1, 0.65), {{0, {0.3, 0.7}}}}),
               std::invalid_argument);
  EXPECT_THROW((aggregate_dynamics{make_params(2, 0.1, 0.65), {{10, {0.9, 0.2}}}}),
               std::invalid_argument);

  // A homogeneous engine is the one group {N, (resolved alpha, beta)}.
  const aggregate_dynamics homogeneous{make_params(2, 0.1, 0.6), 40};
  ASSERT_EQ(homogeneous.groups().size(), 1U);
  EXPECT_EQ(homogeneous.groups()[0].size, 40U);
  EXPECT_EQ(homogeneous.groups()[0].rule.alpha, 1.0 - 0.6);
  EXPECT_EQ(homogeneous.groups()[0].rule.beta, 0.6);
}

TEST(aggregate_mixture, invariants_across_steps) {
  const std::vector<rule_group> groups{
      {200, {0.1, 0.9}}, {300, {0.35, 0.65}}, {100, {0.5, 0.5}}};
  aggregate_dynamics dyn{make_params(4, 0.08, 0.65), groups};
  rng gen{1};
  rng env_gen{2};
  std::vector<std::uint8_t> r(4);
  for (int t = 0; t < 300; ++t) {
    for (auto& x : r) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
    dyn.step(r, gen);

    std::uint64_t from_groups = 0;
    for (std::size_t g = 0; g < dyn.groups().size(); ++g) {
      for (const std::uint64_t d : dyn.group_adopters(g)) from_groups += d;
    }
    EXPECT_EQ(from_groups, dyn.adopters());
    EXPECT_LE(dyn.adopters(), dyn.num_agents());
    // Every agent considers exactly one option: S sums over groups to N.
    const auto stage = dyn.stage_counts();
    EXPECT_EQ(std::accumulate(stage.begin(), stage.end(), std::uint64_t{0}),
              dyn.num_agents());

    double total = 0.0;
    for (const double q : dyn.popularity()) total += q;
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_EQ(dyn.steps(), 300U);
  EXPECT_THROW((void)dyn.group_adopters(3), std::out_of_range);
}

TEST(aggregate_mixture, single_group_matches_agent_based_mean_trajectory) {
  // One group with rule (1-beta, beta) must behave like the homogeneous
  // engine: compare mean popularity trajectories under shared rewards.
  const dynamics_params params = theorem_params(2, 0.65);
  const std::vector<rule_group> groups{
      {500, {params.resolved_alpha(), params.beta}}};

  running_stats grouped_mass;
  constexpr int reps = 400;
  for (int rep = 0; rep < reps; ++rep) {
    rng env_gen = rng::from_stream(10, static_cast<std::uint64_t>(rep));
    rng gen = rng::from_stream(11, static_cast<std::uint64_t>(rep));
    aggregate_dynamics dyn{params, groups};
    std::vector<std::uint8_t> r(2);
    for (int t = 1; t <= 40; ++t) {
      r[0] = env_gen.next_bernoulli(0.85) ? 1 : 0;
      r[1] = env_gen.next_bernoulli(0.35) ? 1 : 0;
      dyn.step(r, gen);
    }
    grouped_mass.add(dyn.popularity()[0]);
  }

  running_stats agent_mass;
  for (int rep = 0; rep < reps; ++rep) {
    rng env_gen = rng::from_stream(10, static_cast<std::uint64_t>(rep));
    rng gen = rng::from_stream(12, static_cast<std::uint64_t>(rep));
    finite_dynamics dyn = identical_agents(params, 500);
    std::vector<std::uint8_t> r(2);
    for (int t = 1; t <= 40; ++t) {
      r[0] = env_gen.next_bernoulli(0.85) ? 1 : 0;
      r[1] = env_gen.next_bernoulli(0.35) ? 1 : 0;
      dyn.step(r, gen);
    }
    agent_mass.add(dyn.popularity()[0]);
  }
  const double se =
      std::sqrt(grouped_mass.variance() / reps + agent_mass.variance() / reps);
  EXPECT_NEAR(grouped_mass.mean(), agent_mass.mean(), 4.0 * se + 0.01);
}

TEST(aggregate_mixture, same_law_as_agent_based_with_two_groups) {
  // Tiny heterogeneous population: joint outcome distribution of per-group
  // adopter counts must match the agent engine with the same assignment.
  const dynamics_params params = make_params(2, 0.2, 0.65);
  const std::vector<rule_group> groups{{3, {0.2, 0.9}}, {3, {0.0, 0.5}}};
  const std::vector<std::uint8_t> rewards{1, 0};
  constexpr int reps = 30000;

  std::map<std::uint64_t, std::uint64_t> grouped_hist;
  std::map<std::uint64_t, std::uint64_t> agent_hist;
  for (int rep = 0; rep < reps; ++rep) {
    rng g1 = rng::from_stream(20, static_cast<std::uint64_t>(rep));
    aggregate_dynamics grouped{params, groups};
    grouped.step(rewards, g1);
    const auto a = grouped.group_adopters(0);
    const auto b = grouped.group_adopters(1);
    ++grouped_hist[((a[0] * 4 + a[1]) * 4 + b[0]) * 4 + b[1]];

    rng g2 = rng::from_stream(21, static_cast<std::uint64_t>(rep));
    std::vector<adoption_rule> rules(6);
    for (std::size_t i = 0; i < 3; ++i) rules[i] = {0.2, 0.9};
    for (std::size_t i = 3; i < 6; ++i) rules[i] = {0.0, 0.5};
    finite_dynamics agent{params, 6, nullptr, std::move(rules)};
    agent.step(rewards, g2);
    std::uint64_t ga0 = 0, ga1 = 0, gb0 = 0, gb1 = 0;
    for (std::size_t i = 0; i < 6; ++i) {
      const std::int32_t c = agent.choices()[i];
      if (c < 0) continue;
      if (i < 3) {
        (c == 0 ? ga0 : ga1) += 1;
      } else {
        (c == 0 ? gb0 : gb1) += 1;
      }
    }
    ++agent_hist[((ga0 * 4 + ga1) * 4 + gb0) * 4 + gb1];
  }

  // Two-sample chi-square over the joint outcomes.
  std::map<std::uint64_t, std::pair<double, double>> joint;
  for (const auto& [k, c] : grouped_hist) joint[k].first += static_cast<double>(c);
  for (const auto& [k, c] : agent_hist) joint[k].second += static_cast<double>(c);
  double stat = 0.0;
  double dof = -1.0;
  for (const auto& [k, counts] : joint) {
    const double total = counts.first + counts.second;
    if (total < 10.0) continue;
    const double expected = total / 2.0;
    stat += (counts.first - expected) * (counts.first - expected) / expected +
            (counts.second - expected) * (counts.second - expected) / expected;
    dof += 1.0;
  }
  ASSERT_GE(dof, 1.0);
  const double p_value = 1.0 - chi_square_cdf(stat, dof);
  EXPECT_GT(p_value, 1e-4) << "stat=" << stat << " dof=" << dof;
}

TEST(aggregate_mixture, sensitive_group_drives_convergence) {
  // 90% signal-blind + 10% discerning: the blind mass follows the
  // discerning core onto the best option.
  const std::vector<rule_group> groups{{900, {1.0, 1.0}}, {100, {0.1, 0.9}}};
  aggregate_dynamics dyn{make_params(2, 0.05, 0.65), groups};
  rng gen{5};
  rng env_gen{6};
  std::vector<std::uint8_t> r(2);
  running_stats late;
  for (int t = 0; t < 2000; ++t) {
    r[0] = env_gen.next_bernoulli(0.85) ? 1 : 0;
    r[1] = env_gen.next_bernoulli(0.35) ? 1 : 0;
    dyn.step(r, gen);
    if (t >= 1000) late.add(dyn.popularity()[0]);
  }
  EXPECT_GT(late.mean(), 0.6);
}

TEST(aggregate_mixture, reset_clears_state) {
  aggregate_dynamics dyn{make_params(2, 0.1, 0.65), {{10, {0.3, 0.7}}}};
  rng gen{7};
  dyn.step(std::vector<std::uint8_t>{1, 0}, gen);
  dyn.reset();
  EXPECT_EQ(dyn.steps(), 0U);
  EXPECT_EQ(dyn.adopters(), 0U);
  EXPECT_DOUBLE_EQ(dyn.popularity()[0], 0.5);

  // A mixture's group rows clear too.
  aggregate_dynamics mixture{make_params(2, 0.1, 0.65), {{10, {0.3, 0.7}}, {5, {0.0, 1.0}}}};
  mixture.step(std::vector<std::uint8_t>{1, 1}, gen);
  mixture.reset();
  for (std::size_t g = 0; g < 2; ++g) {
    for (const std::uint64_t d : mixture.group_adopters(g)) EXPECT_EQ(d, 0U);
  }
}

}  // namespace
}  // namespace sgl::core
