// Property sweeps: structural invariants checked across the whole graph
// generator zoo and across randomized dynamics configurations ("fuzz-light"
// — random but seeded, hence reproducible).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/aggregate_dynamics.h"
#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "graph/graph.h"
#include "support/rng.h"

namespace sgl {
namespace {

// --- graph generator invariants -----------------------------------------------------

struct graph_case {
  std::string name;
  graph::graph g;
};

std::vector<graph_case> generator_zoo() {
  rng gen{1234};
  std::vector<graph_case> zoo;
  zoo.push_back({"complete_9", graph::graph::complete(9)});
  zoo.push_back({"ring_17", graph::graph::ring(17)});
  zoo.push_back({"grid_4x7", graph::graph::grid(4, 7, false)});
  zoo.push_back({"torus_5x5", graph::graph::grid(5, 5, true)});
  zoo.push_back({"star_12", graph::graph::star(12)});
  zoo.push_back({"erdos_renyi_60", graph::graph::erdos_renyi(60, 0.08, gen)});
  zoo.push_back({"watts_strogatz_40", graph::graph::watts_strogatz(40, 3, 0.2, gen)});
  zoo.push_back({"barabasi_albert_50", graph::graph::barabasi_albert(50, 2, gen)});
  zoo.push_back({"two_cliques_8", graph::graph::two_cliques(8, 2)});
  return zoo;
}

class graph_invariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(graph_invariants, csr_is_consistent) {
  const auto zoo = generator_zoo();
  const graph::graph& g = zoo[GetParam()].g;

  // Degree sum = 2|E|.
  std::size_t degree_sum = 0;
  for (graph::graph::vertex v = 0; v < g.num_vertices(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());

  for (graph::graph::vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    // Sorted, unique, no self-loops, symmetric.
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
    for (const graph::graph::vertex w : nbrs) {
      EXPECT_NE(w, v);
      EXPECT_LT(w, g.num_vertices());
      EXPECT_TRUE(g.has_edge(w, v)) << zoo[GetParam()].name;
    }
  }

  // min/max/average degree are mutually consistent.
  EXPECT_LE(g.min_degree(), g.max_degree());
  EXPECT_GE(g.average_degree(), static_cast<double>(g.min_degree()));
  EXPECT_LE(g.average_degree(), static_cast<double>(g.max_degree()));
}

INSTANTIATE_TEST_SUITE_P(zoo, graph_invariants, ::testing::Range<std::size_t>(0, 9),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return generator_zoo()[info.param].name;
                         });

// --- randomized dynamics invariants ----------------------------------------------------

/// Draws a random-but-valid parameter set from a seeded stream.
core::dynamics_params random_params(rng& gen) {
  core::dynamics_params p;
  p.num_options = 1 + static_cast<std::size_t>(gen.next_below(7));
  p.mu = gen.next_double();
  p.beta = gen.next_double();
  // Random alpha in [0, beta], occasionally the 1-beta convention.
  p.alpha = gen.next_bernoulli(0.3) ? -1.0 : gen.next_double() * p.beta;
  if (p.alpha < 0.0 && 1.0 - p.beta > p.beta) p.beta = 1.0 - p.beta;  // keep alpha<=beta
  return p;
}

class randomized_invariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(randomized_invariants, every_engine_keeps_its_invariants) {
  rng meta{GetParam()};
  for (int config = 0; config < 8; ++config) {
    const core::dynamics_params params = random_params(meta);
    ASSERT_NO_THROW(params.validate());
    const std::size_t m = params.num_options;
    const std::uint64_t n = 1 + meta.next_below(300);

    core::finite_dynamics agent{params, static_cast<std::size_t>(n)};
    core::aggregate_dynamics aggregate{params, n};
    core::infinite_dynamics infinite{params};
    core::aggregate_dynamics grouped{
        params, std::vector<core::rule_group>{
                    {(n + 1) / 2, {params.resolved_alpha(), params.beta}},
                    {n / 2 + 1, {0.0, 1.0}}}};

    rng gen = meta.split();
    rng env_gen = meta.split();
    std::vector<std::uint8_t> r(m);
    for (int t = 0; t < 40; ++t) {
      for (auto& x : r) x = env_gen.next_bernoulli(env_gen.next_double()) ? 1 : 0;
      agent.step(r, gen);
      aggregate.step(r, gen);
      infinite.step(r);
      grouped.step(r, gen);

      const auto check_distribution = [&](std::span<const double> q) {
        double total = 0.0;
        for (const double x : q) {
          ASSERT_GE(x, 0.0);
          ASSERT_LE(x, 1.0 + 1e-12);
          total += x;
        }
        ASSERT_NEAR(total, 1.0, 1e-9);
      };
      check_distribution(agent.popularity());
      check_distribution(aggregate.popularity());
      check_distribution(infinite.distribution());
      check_distribution(grouped.popularity());

      ASSERT_LE(agent.adopters(), n);
      ASSERT_LE(aggregate.adopters(), n);
      ASSERT_LE(grouped.adopters(), grouped.num_agents());

      // Stage counts always partition the population.
      ASSERT_EQ(std::accumulate(agent.stage_counts().begin(),
                                agent.stage_counts().end(), std::uint64_t{0}),
                n);
      ASSERT_EQ(std::accumulate(aggregate.stage_counts().begin(),
                                aggregate.stage_counts().end(), std::uint64_t{0}),
                n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(seeds, randomized_invariants,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL, 55ULL, 66ULL));

}  // namespace
}  // namespace sgl
