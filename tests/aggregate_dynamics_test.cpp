#include "core/aggregate_dynamics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "core/finite_dynamics.h"
#include "core/params.h"
#include "identical_agents.h"
#include "support/gof.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl::core {
namespace {

dynamics_params make_params(std::size_t m, double mu, double beta, double alpha = -1.0) {
  dynamics_params p;
  p.num_options = m;
  p.mu = mu;
  p.beta = beta;
  p.alpha = alpha;
  return p;
}

TEST(aggregate_dynamics, initial_state) {
  const aggregate_dynamics dyn{make_params(4, 0.1, 0.6), 1000};
  EXPECT_EQ(dyn.num_agents(), 1000U);
  EXPECT_EQ(dyn.adopters(), 0U);
  for (const double q : dyn.popularity()) EXPECT_DOUBLE_EQ(q, 0.25);
}

TEST(aggregate_dynamics, invariants_hold_across_steps) {
  aggregate_dynamics dyn{make_params(3, 0.08, 0.62), 5000};
  rng gen{1};
  rng env_gen{2};
  std::vector<std::uint8_t> r(3);
  for (int t = 0; t < 500; ++t) {
    for (auto& x : r) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
    dyn.step(r, gen);
    const auto s = dyn.stage_counts();
    EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::uint64_t{0}), 5000U);
    const auto d = dyn.adopter_counts();
    std::uint64_t adopters = 0;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_LE(d[j], s[j]);
      adopters += d[j];
    }
    EXPECT_EQ(adopters, dyn.adopters());
    double total = 0.0;
    for (const double q : dyn.popularity()) total += q;
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(aggregate_dynamics, pure_copy_never_empty) {
  aggregate_dynamics dyn{make_params(2, 0.3, 1.0, 1.0), 100};
  rng gen{3};
  for (int t = 0; t < 200; ++t) {
    dyn.step(std::vector<std::uint8_t>{0, 0}, gen);
    EXPECT_EQ(dyn.adopters(), 100U);
  }
  EXPECT_EQ(dyn.empty_steps(), 0U);
}

TEST(aggregate_dynamics, empty_population_rule) {
  aggregate_dynamics dyn{make_params(2, 0.5, 1.0, 0.0), 40};
  rng gen{4};
  dyn.step(std::vector<std::uint8_t>{0, 0}, gen);
  EXPECT_EQ(dyn.adopters(), 0U);
  EXPECT_EQ(dyn.empty_steps(), 1U);
  EXPECT_DOUBLE_EQ(dyn.popularity()[0], 0.5);
}

TEST(aggregate_dynamics, start_from_counts) {
  const std::vector<std::uint64_t> counts{10, 30, 20};
  const aggregate_dynamics dyn{make_params(3, 0.1, 0.6), 100, counts};
  EXPECT_EQ(dyn.adopters(), 60U);
  EXPECT_DOUBLE_EQ(dyn.popularity()[1], 0.5);
  EXPECT_EQ(dyn.steps(), 0U);

  EXPECT_THROW((aggregate_dynamics{make_params(3, 0.1, 0.6), 100,
                                   std::vector<std::uint64_t>{200, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW((aggregate_dynamics{make_params(3, 0.1, 0.6), 100,
                                   std::vector<std::uint64_t>{1, 2}}),
               std::invalid_argument);
}

TEST(aggregate_dynamics, start_from_zero_counts_is_uniform) {
  const aggregate_dynamics dyn{make_params(2, 0.1, 0.6), 100, std::vector<std::uint64_t>{0, 0}};
  EXPECT_DOUBLE_EQ(dyn.popularity()[0], 0.5);
  EXPECT_EQ(dyn.adopters(), 0U);
}

TEST(aggregate_dynamics, converges_to_best_option) {
  const dynamics_params params = theorem_params(5, 0.62);
  aggregate_dynamics dyn{params, 20000};
  rng gen{5};
  rng env_gen{6};
  const std::vector<double> etas{0.9, 0.3, 0.3, 0.3, 0.3};
  std::vector<std::uint8_t> r(5);
  running_stats late;
  for (int t = 0; t < 1200; ++t) {
    for (std::size_t j = 0; j < 5; ++j) r[j] = env_gen.next_bernoulli(etas[j]) ? 1 : 0;
    dyn.step(r, gen);
    if (t >= 600) late.add(dyn.popularity()[0]);
  }
  EXPECT_GT(late.mean(), 0.8);
}

TEST(aggregate_dynamics, rejects_bad_construction) {
  EXPECT_THROW((aggregate_dynamics{make_params(2, 0.1, 0.6), 0}), std::invalid_argument);
  aggregate_dynamics dyn{make_params(2, 0.1, 0.6), 10};
  rng gen{7};
  EXPECT_THROW(dyn.step(std::vector<std::uint8_t>{1, 0, 1}, gen), std::invalid_argument);
}

// --- distributional equality with the agent-based engine -------------------------

/// Two-sample chi-square homogeneity test over categorical outcomes.
gof_result two_sample_chi_square(const std::map<std::uint64_t, std::uint64_t>& a,
                                 const std::map<std::uint64_t, std::uint64_t>& b) {
  std::map<std::uint64_t, std::pair<double, double>> joint;
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [k, c] : a) {
    joint[k].first += static_cast<double>(c);
    na += static_cast<double>(c);
  }
  for (const auto& [k, c] : b) {
    joint[k].second += static_cast<double>(c);
    nb += static_cast<double>(c);
  }
  double stat = 0.0;
  double dof = -1.0;
  for (const auto& [k, counts] : joint) {
    const double total = counts.first + counts.second;
    if (total < 10.0) continue;  // skip sparse cells
    const double ea = total * na / (na + nb);
    const double eb = total * nb / (na + nb);
    stat += (counts.first - ea) * (counts.first - ea) / ea +
            (counts.second - eb) * (counts.second - eb) / eb;
    dof += 1.0;
  }
  if (dof < 1.0) return {.statistic = 0.0, .p_value = 1.0};
  return {.statistic = stat, .p_value = 1.0 - chi_square_cdf(stat, dof)};
}

TEST(aggregate_dynamics, same_law_as_agent_based_one_step) {
  // Encode the full one-step outcome (D_0, D_1) after a fixed signal vector
  // and compare the two engines' outcome distributions.
  const dynamics_params params = make_params(2, 0.2, 0.7);
  constexpr std::uint64_t n = 8;
  constexpr int reps = 30000;
  const std::vector<std::uint8_t> r{1, 0};

  std::map<std::uint64_t, std::uint64_t> agent_hist;
  std::map<std::uint64_t, std::uint64_t> aggregate_hist;
  for (int rep = 0; rep < reps; ++rep) {
    rng g1 = rng::from_stream(100, static_cast<std::uint64_t>(rep));
    finite_dynamics agent = identical_agents(params, n);
    agent.step(r, g1);
    const std::uint64_t key_a = agent.adopter_counts()[0] * 16 + agent.adopter_counts()[1];
    ++agent_hist[key_a];

    rng g2 = rng::from_stream(200, static_cast<std::uint64_t>(rep));
    aggregate_dynamics agg{params, n};
    agg.step(r, g2);
    const std::uint64_t key_b = agg.adopter_counts()[0] * 16 + agg.adopter_counts()[1];
    ++aggregate_hist[key_b];
  }
  const gof_result res = two_sample_chi_square(agent_hist, aggregate_hist);
  EXPECT_GT(res.p_value, 1e-4) << "stat=" << res.statistic;
}

TEST(aggregate_dynamics, same_law_as_agent_based_three_steps) {
  // After three steps with a fixed signal schedule the joint outcome is the
  // popularity-count vector; the two engines must still agree in law.
  const dynamics_params params = make_params(3, 0.15, 0.65);
  constexpr std::uint64_t n = 6;
  constexpr int reps = 20000;
  const std::vector<std::vector<std::uint8_t>> schedule{{1, 0, 0}, {0, 1, 0}, {1, 0, 1}};

  std::map<std::uint64_t, std::uint64_t> agent_hist;
  std::map<std::uint64_t, std::uint64_t> aggregate_hist;
  for (int rep = 0; rep < reps; ++rep) {
    rng g1 = rng::from_stream(300, static_cast<std::uint64_t>(rep));
    finite_dynamics agent = identical_agents(params, n);
    for (const auto& r : schedule) agent.step(r, g1);
    const auto da = agent.adopter_counts();
    ++agent_hist[(da[0] * 8 + da[1]) * 8 + da[2]];

    rng g2 = rng::from_stream(400, static_cast<std::uint64_t>(rep));
    aggregate_dynamics agg{params, n};
    for (const auto& r : schedule) agg.step(r, g2);
    const auto db = agg.adopter_counts();
    ++aggregate_hist[(db[0] * 8 + db[1]) * 8 + db[2]];
  }
  const gof_result res = two_sample_chi_square(agent_hist, aggregate_hist);
  EXPECT_GT(res.p_value, 1e-4) << "stat=" << res.statistic;
}

TEST(aggregate_dynamics, matches_agent_based_mean_trajectory) {
  // Larger population, stochastic environment: the mean popularity of the
  // best option after 30 steps must agree across engines.
  const dynamics_params params = theorem_params(3, 0.65);
  constexpr std::uint64_t n = 400;
  constexpr int reps = 300;
  const std::vector<double> etas{0.8, 0.4, 0.4};

  running_stats agent_mass;
  running_stats aggregate_mass;
  for (int rep = 0; rep < reps; ++rep) {
    rng env1 = rng::from_stream(500, static_cast<std::uint64_t>(rep));
    rng g1 = rng::from_stream(600, static_cast<std::uint64_t>(rep));
    finite_dynamics agent = identical_agents(params, n);
    std::vector<std::uint8_t> r(3);
    for (int t = 0; t < 30; ++t) {
      for (std::size_t j = 0; j < 3; ++j) r[j] = env1.next_bernoulli(etas[j]) ? 1 : 0;
      agent.step(r, g1);
    }
    agent_mass.add(agent.popularity()[0]);

    rng env2 = rng::from_stream(500, static_cast<std::uint64_t>(rep));  // same rewards
    rng g2 = rng::from_stream(700, static_cast<std::uint64_t>(rep));
    aggregate_dynamics agg{params, n};
    for (int t = 0; t < 30; ++t) {
      for (std::size_t j = 0; j < 3; ++j) r[j] = env2.next_bernoulli(etas[j]) ? 1 : 0;
      agg.step(r, g2);
    }
    aggregate_mass.add(agg.popularity()[0]);
  }
  const double se = std::sqrt(agent_mass.variance() / reps +
                              aggregate_mass.variance() / reps);
  EXPECT_NEAR(agent_mass.mean(), aggregate_mass.mean(), 4.0 * se + 0.01);
}

}  // namespace
}  // namespace sgl::core
