#include "core/finite_dynamics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/params.h"
#include "graph/graph.h"
#include "identical_agents.h"
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

TEST(finite_dynamics, initial_state) {
  const finite_dynamics dyn = identical_agents(make_params(3, 0.1, 0.6), 50);
  EXPECT_EQ(dyn.num_agents(), 50U);
  EXPECT_EQ(dyn.adopters(), 0U);
  EXPECT_EQ(dyn.steps(), 0U);
  for (const double q : dyn.popularity()) EXPECT_DOUBLE_EQ(q, 1.0 / 3.0);
  for (const std::int32_t c : dyn.choices()) EXPECT_EQ(c, -1);
}

TEST(finite_dynamics, invariants_hold_across_steps) {
  finite_dynamics dyn = identical_agents(make_params(4, 0.1, 0.65), 200);
  rng gen{1};
  std::vector<std::uint8_t> r(4);
  rng env_gen{2};
  for (int t = 0; t < 300; ++t) {
    for (auto& x : r) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
    dyn.step(r, gen);

    // Stage counts partition the population.
    const auto s = dyn.stage_counts();
    EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::uint64_t{0}), 200U);

    // Adopter counts match choices and are bounded by stage counts.
    const auto d = dyn.adopter_counts();
    std::vector<std::uint64_t> from_choices(4, 0);
    for (const std::int32_t c : dyn.choices()) {
      if (c >= 0) ++from_choices[static_cast<std::size_t>(c)];
    }
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(d[j], from_choices[j]);
      EXPECT_LE(d[j], s[j]);
    }

    // Popularity is a distribution.
    double total = 0.0;
    for (const double q : dyn.popularity()) {
      EXPECT_GE(q, 0.0);
      total += q;
    }
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_EQ(dyn.steps(), 300U);
}

TEST(finite_dynamics, single_agent_population_works) {
  finite_dynamics dyn = identical_agents(make_params(3, 0.2, 1.0, 1.0), 1);
  rng gen{21};
  dyn.step(std::vector<std::uint8_t>{1, 1, 1}, gen);
  EXPECT_EQ(dyn.num_agents(), 1U);
  EXPECT_EQ(dyn.adopters(), 1U);  // beta = alpha = 1 always commits
  EXPECT_GE(dyn.choices()[0], 0);
}

TEST(finite_dynamics, pure_copy_regime_never_sits_out) {
  finite_dynamics dyn = identical_agents(make_params(3, 0.2, 1.0, 1.0), 100);
  rng gen{3};
  const std::vector<std::uint8_t> r{0, 1, 0};
  for (int t = 0; t < 100; ++t) {
    dyn.step(r, gen);
    EXPECT_EQ(dyn.adopters(), 100U);
  }
  EXPECT_EQ(dyn.empty_steps(), 0U);
}

TEST(finite_dynamics, alpha_zero_bad_signals_empty_population) {
  // beta=1, alpha=0, all signals bad: nobody can adopt.
  finite_dynamics dyn = identical_agents(make_params(2, 0.5, 1.0, 0.0), 50);
  rng gen{4};
  const std::vector<std::uint8_t> all_bad{0, 0};
  dyn.step(all_bad, gen);
  EXPECT_EQ(dyn.adopters(), 0U);
  EXPECT_EQ(dyn.empty_steps(), 1U);
  for (const double q : dyn.popularity()) EXPECT_DOUBLE_EQ(q, 0.5);  // uniform rule
}

TEST(finite_dynamics, mu_one_samples_uniformly) {
  // mu = 1: stage-1 counts are Multinomial(N, uniform) regardless of history.
  finite_dynamics dyn = identical_agents(make_params(4, 1.0, 1.0, 1.0), 4000);
  rng gen{5};
  const std::vector<std::uint8_t> r{1, 1, 1, 1};
  std::vector<running_stats> s(4);
  for (int t = 0; t < 50; ++t) {
    dyn.step(r, gen);
    for (std::size_t j = 0; j < 4; ++j) {
      s[j].add(static_cast<double>(dyn.stage_counts()[j]));
    }
  }
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(s[j].mean(), 1000.0, 25.0);
}

TEST(finite_dynamics, mu_zero_herds_to_consensus) {
  // No exploration, signal-independent adoption (alpha = beta = 1): pure
  // Polya-style copying must fixate on a single option and stay there.
  finite_dynamics dyn = identical_agents(make_params(3, 0.0, 1.0, 1.0), 60);
  rng gen{6};
  const std::vector<std::uint8_t> r{1, 1, 1};
  for (int t = 0; t < 2000; ++t) dyn.step(r, gen);
  double top = 0.0;
  for (const double q : dyn.popularity()) top = std::max(top, q);
  EXPECT_DOUBLE_EQ(top, 1.0) << "copying without exploration fixates";
  const auto q_before = std::vector<double>(dyn.popularity().begin(),
                                            dyn.popularity().end());
  dyn.step(r, gen);
  EXPECT_EQ(q_before[0], dyn.popularity()[0]);  // absorbed forever
}

TEST(finite_dynamics, converges_to_best_option) {
  const dynamics_params params = theorem_params(3, 0.6);
  finite_dynamics dyn = identical_agents(params, 500);
  rng gen{7};
  rng env_gen{8};
  const std::vector<double> etas{0.9, 0.2, 0.2};
  std::vector<std::uint8_t> r(3);
  running_stats late;
  for (int t = 0; t < 1500; ++t) {
    for (std::size_t j = 0; j < 3; ++j) r[j] = env_gen.next_bernoulli(etas[j]) ? 1 : 0;
    dyn.step(r, gen);
    if (t >= 750) late.add(dyn.popularity()[0]);
  }
  EXPECT_GT(late.mean(), 0.75);
}

TEST(finite_dynamics, same_seed_reproduces_exactly) {
  const dynamics_params params = make_params(3, 0.1, 0.6);
  finite_dynamics a = identical_agents(params, 100);
  finite_dynamics b = identical_agents(params, 100);
  rng ga{9};
  rng gb{9};
  rng env_gen{10};
  std::vector<std::uint8_t> r(3);
  for (int t = 0; t < 50; ++t) {
    for (auto& x : r) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
    a.step(r, ga);
    b.step(r, gb);
    for (std::size_t i = 0; i < 100; ++i) ASSERT_EQ(a.choices()[i], b.choices()[i]);
  }
}

TEST(finite_dynamics, reset_clears_everything) {
  finite_dynamics dyn = identical_agents(make_params(2, 0.1, 0.7), 30);
  rng gen{11};
  dyn.step(std::vector<std::uint8_t>{1, 0}, gen);
  dyn.reset();
  EXPECT_EQ(dyn.steps(), 0U);
  EXPECT_EQ(dyn.adopters(), 0U);
  EXPECT_DOUBLE_EQ(dyn.popularity()[0], 0.5);
  for (const std::int32_t c : dyn.choices()) EXPECT_EQ(c, -1);
}

// --- heterogeneous rules ------------------------------------------------------------

TEST(finite_dynamics, heterogeneous_rules_validation) {
  const auto build = [](std::vector<adoption_rule> rules) {
    return finite_dynamics{make_params(2, 0.1, 0.6), 3, nullptr, std::move(rules)};
  };
  EXPECT_THROW(build({{0.1, 0.9}}), std::invalid_argument);  // wrong size
  EXPECT_THROW(build({{0.9, 0.1}, {0.1, 0.9}, {0.1, 0.9}}),
               std::invalid_argument);  // alpha > beta
  EXPECT_NO_THROW(build({{0.1, 0.9}, {0.0, 1.0}, {0.5, 0.5}}));
}

TEST(finite_dynamics, deterministic_adopters_always_commit_on_good) {
  // Agents with (alpha=0, beta=1) commit exactly when the signal is good.
  finite_dynamics dyn{make_params(2, 1.0, 0.6), 100, nullptr,
                      std::vector<adoption_rule>(100, {0.0, 1.0})};
  rng gen{12};
  dyn.step(std::vector<std::uint8_t>{1, 1}, gen);
  EXPECT_EQ(dyn.adopters(), 100U);
  dyn.step(std::vector<std::uint8_t>{0, 0}, gen);
  EXPECT_EQ(dyn.adopters(), 0U);
}

TEST(finite_dynamics, mixed_population_biases_towards_sensitive_agents) {
  // Half the agents never adopt (alpha = beta = 0): adopter count stays at
  // most N/2.
  std::vector<adoption_rule> rules(100, {0.0, 0.0});
  for (std::size_t i = 0; i < 50; ++i) rules[i] = {1.0, 1.0};
  finite_dynamics dyn{make_params(2, 0.5, 0.8), 100, nullptr, std::move(rules)};
  rng gen{13};
  for (int t = 0; t < 20; ++t) {
    dyn.step(std::vector<std::uint8_t>{1, 0}, gen);
    EXPECT_EQ(dyn.adopters(), 50U);
  }
}

TEST(finite_dynamics, refuses_a_fully_mixed_homogeneous_population) {
  // Neither a topology nor per-agent rules: that population is the count
  // process aggregate_dynamics runs, and the refusal says so.
  try {
    const finite_dynamics dyn{make_params(2, 0.1, 0.6), 10};
    FAIL() << "constructed a fully mixed homogeneous finite_dynamics";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("aggregate_dynamics"), std::string::npos)
        << error.what();
  }
}

// --- topology ------------------------------------------------------------------------

TEST(finite_dynamics, topology_size_mismatch_throws) {
  const auto g = std::make_shared<const graph::graph>(graph::graph::ring(11));
  EXPECT_THROW((finite_dynamics{make_params(2, 0.1, 0.6), 10, g}), std::invalid_argument);
}

TEST(finite_dynamics, network_mode_keeps_invariants) {
  finite_dynamics dyn{make_params(3, 0.1, 0.6), 100,
                      std::make_shared<const graph::graph>(graph::graph::ring(100))};
  rng gen{14};
  rng env_gen{15};
  std::vector<std::uint8_t> r(3);
  for (int t = 0; t < 200; ++t) {
    for (auto& x : r) x = env_gen.next_bernoulli(0.6) ? 1 : 0;
    dyn.step(r, gen);
    double total = 0.0;
    for (const double q : dyn.popularity()) total += q;
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(finite_dynamics, isolated_agents_fall_back_to_uniform) {
  // Edgeless graph: stage 1 must behave like uniform sampling even with
  // mu = 0 (the documented fallback).
  finite_dynamics dyn{make_params(2, 0.0, 1.0, 1.0), 50,
                      std::make_shared<const graph::graph>(
                          50, std::vector<graph::graph::edge>{})};
  rng gen{16};
  running_stats first_option;
  for (int t = 0; t < 200; ++t) {
    dyn.step(std::vector<std::uint8_t>{1, 1}, gen);
    first_option.add(static_cast<double>(dyn.stage_counts()[0]));
  }
  EXPECT_NEAR(first_option.mean(), 25.0, 2.0);
}

TEST(finite_dynamics, network_convergence_on_complete_graph_matches_mixed) {
  // The complete graph is "everyone can copy everyone" — same as the mixed
  // mode in expectation.  Check both find the best option.
  const dynamics_params params = theorem_params(2, 0.62);
  finite_dynamics with_graph{params, 200,
                             std::make_shared<const graph::graph>(graph::graph::complete(200))};
  finite_dynamics mixed = identical_agents(params, 200);

  rng g1{17};
  rng g2{18};
  rng env_gen{19};
  const std::vector<double> etas{0.85, 0.3};
  std::vector<std::uint8_t> r(2);
  running_stats mass_graph;
  running_stats mass_mixed;
  for (int t = 0; t < 800; ++t) {
    for (std::size_t j = 0; j < 2; ++j) r[j] = env_gen.next_bernoulli(etas[j]) ? 1 : 0;
    with_graph.step(r, g1);
    mixed.step(r, g2);
    if (t >= 400) {
      mass_graph.add(with_graph.popularity()[0]);
      mass_mixed.add(mixed.popularity()[0]);
    }
  }
  EXPECT_GT(mass_graph.mean(), 0.7);
  EXPECT_GT(mass_mixed.mean(), 0.7);
  EXPECT_NEAR(mass_graph.mean(), mass_mixed.mean(), 0.1);
}

TEST(finite_dynamics, rejects_bad_construction) {
  EXPECT_THROW(identical_agents(make_params(2, 0.1, 0.6), 0), std::invalid_argument);
  EXPECT_THROW(identical_agents(make_params(0, 0.1, 0.6), 10), std::invalid_argument);
  finite_dynamics dyn = identical_agents(make_params(2, 0.1, 0.6), 10);
  rng gen{20};
  EXPECT_THROW(dyn.step(std::vector<std::uint8_t>{1}, gen), std::invalid_argument);
}

}  // namespace
}  // namespace sgl::core
