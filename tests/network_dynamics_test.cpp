// Network-mode tests for finite_dynamics: the incremental committed-
// neighbour view (sparse mode) and the rejection-with-exact-scan sampler
// (dense mode) must both realize the law "copy a uniform committed
// neighbour, uniform option when there is none" exactly; the sharded
// step's view-delta walk must keep the view equal to the counts rebuilt
// from the choices; and reset() must zero the view so a reset engine
// replays a fresh one.  The step is serial: threaded network runs are
// covered by harness_determinism_test.

#include "core/finite_dynamics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/params.h"
#include "graph/graph.h"
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

/// The exact stage-1 marginal: expected number of agents considering each
/// option given the previous choices, computed by direct neighbourhood
/// scans (the law both samplers must realize).
std::vector<double> expected_stage_counts(const graph::graph& g,
                                          std::span<const std::int32_t> choices,
                                          std::size_t m, double mu) {
  std::vector<double> expected(m, 0.0);
  std::vector<double> committed(m, 0.0);
  for (std::size_t i = 0; i < g.num_vertices(); ++i) {
    std::fill(committed.begin(), committed.end(), 0.0);
    double total = 0.0;
    for (const auto v : g.neighbors(static_cast<graph::graph::vertex>(i))) {
      const std::int32_t c = choices[v];
      if (c >= 0) {
        committed[static_cast<std::size_t>(c)] += 1.0;
        total += 1.0;
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      const double copy_p = total > 0.0 ? committed[j] / total : 1.0 / static_cast<double>(m);
      expected[j] += mu / static_cast<double>(m) + (1.0 - mu) * copy_p;
    }
  }
  return expected;
}

/// Drives `dyn` into a nontrivial state, then estimates the one-step
/// stage-1 marginal by averaging many independent continuations from
/// copies, and checks it against the exact expectation.
void check_stage_one_law(finite_dynamics& dyn, const graph::graph& g,
                         std::size_t m, double mu,
                         std::span<const std::uint8_t> rewards) {
  rng warm{101};
  for (int t = 0; t < 30; ++t) dyn.step(rewards, warm);

  const std::vector<double> expected =
      expected_stage_counts(g, dyn.choices(), m, mu);

  constexpr int replications = 6000;
  std::vector<double> mean(m, 0.0);
  for (int r = 0; r < replications; ++r) {
    finite_dynamics branch = dyn;  // same state, fresh future
    rng gen = rng::from_stream(777, static_cast<std::uint64_t>(r));
    branch.step(rewards, gen);
    for (std::size_t j = 0; j < m; ++j) {
      mean[j] += static_cast<double>(branch.stage_counts()[j]);
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    mean[j] /= replications;
    // Stage counts are sums of independent indicators over <= N agents:
    // the standard error of the estimated mean is below
    // sqrt(N) / sqrt(replications); 6 sigma keeps the test sharp but stable.
    const double sigma =
        std::sqrt(static_cast<double>(g.num_vertices())) / std::sqrt(replications);
    EXPECT_NEAR(mean[j], expected[j], 6.0 * sigma)
        << "option " << j << " of " << m;
  }
}

TEST(network_dynamics, stage_one_law_exact_sparse_mode) {
  // Ring: average degree 2 -> incremental-view sampler (m = 3 exercises the
  // generic row layout, not the packed two-option one).
  const auto g = std::make_shared<const graph::graph>(graph::graph::ring(64));
  finite_dynamics dyn{make_params(3, 0.1, 0.7), 64, g};
  const std::vector<std::uint8_t> rewards{1, 0, 1};
  check_stage_one_law(dyn, *g, 3, 0.1, rewards);
}

TEST(network_dynamics, stage_one_law_exact_sparse_mode_packed) {
  // m = 2 takes the packed one-word-per-vertex view.
  const auto g = std::make_shared<const graph::graph>(graph::graph::ring(64));
  finite_dynamics dyn{make_params(2, 0.1, 0.7), 64, g};
  const std::vector<std::uint8_t> rewards{1, 0};
  check_stage_one_law(dyn, *g, 2, 0.1, rewards);
}

TEST(network_dynamics, stage_one_law_exact_dense_mode) {
  // Two cliques of 40: average degree ~40 -> rejection sampler with the
  // exact scan fallback.
  const auto g = std::make_shared<const graph::graph>(graph::graph::two_cliques(40, 2));
  finite_dynamics dyn{make_params(2, 0.1, 0.7), 80, g};
  const std::vector<std::uint8_t> rewards{1, 0};
  check_stage_one_law(dyn, *g, 2, 0.1, rewards);
}

/// Straight-line reference implementation of the network step: collect the
/// committed neighbours, pick one uniformly.  Different RNG consumption, so
/// the comparison with the engine is statistical, not bitwise.
class naive_reference {
 public:
  naive_reference(const graph::graph& g, std::size_t m, double mu, double alpha,
                  double beta)
      : g_{g}, m_{m}, mu_{mu}, alpha_{alpha}, beta_{beta},
        choices_(g.num_vertices(), -1), previous_(g.num_vertices(), -1),
        adopter_counts_(m, 0) {}

  void step(std::span<const std::uint8_t> rewards, rng& gen) {
    previous_ = choices_;
    std::fill(adopter_counts_.begin(), adopter_counts_.end(), 0);
    std::vector<std::int32_t> committed;
    for (std::size_t i = 0; i < choices_.size(); ++i) {
      std::size_t considered;
      if (gen.next_bernoulli(mu_)) {
        considered = static_cast<std::size_t>(gen.next_below(m_));
      } else {
        committed.clear();
        for (const auto v : g_.neighbors(static_cast<graph::graph::vertex>(i))) {
          if (previous_[v] >= 0) committed.push_back(previous_[v]);
        }
        considered = committed.empty()
                         ? static_cast<std::size_t>(gen.next_below(m_))
                         : static_cast<std::size_t>(
                               committed[gen.next_below(committed.size())]);
      }
      const double adopt_p = rewards[considered] != 0 ? beta_ : alpha_;
      if (gen.next_bernoulli(adopt_p)) {
        choices_[i] = static_cast<std::int32_t>(considered);
        ++adopter_counts_[considered];
      } else {
        choices_[i] = -1;
      }
    }
  }

  [[nodiscard]] double popularity0() const {
    const std::uint64_t total =
        std::accumulate(adopter_counts_.begin(), adopter_counts_.end(),
                        std::uint64_t{0});
    if (total == 0) return 1.0 / static_cast<double>(m_);
    return static_cast<double>(adopter_counts_[0]) / static_cast<double>(total);
  }
  [[nodiscard]] std::uint64_t adopters() const {
    return std::accumulate(adopter_counts_.begin(), adopter_counts_.end(),
                           std::uint64_t{0});
  }

 private:
  const graph::graph& g_;
  std::size_t m_;
  double mu_, alpha_, beta_;
  std::vector<std::int32_t> choices_, previous_;
  std::vector<std::uint64_t> adopter_counts_;
};

/// Multi-step law equivalence on a given topology: engine trajectories and
/// naive-reference trajectories (independent streams, shared reward
/// streams) must agree in distribution.
void check_law_against_reference(graph::graph g, double beta) {
  const auto topology = std::make_shared<const graph::graph>(std::move(g));
  const std::size_t m = 2;
  const double mu = 0.08;
  const dynamics_params params = make_params(m, mu, beta);
  const double alpha = params.resolved_alpha();
  const std::vector<double> etas{0.8, 0.3};

  constexpr int replications = 500;
  constexpr int horizon = 30;
  running_stats engine_pop, engine_adopt, reference_pop, reference_adopt;
  std::vector<std::uint8_t> rewards(m);

  for (int r = 0; r < replications; ++r) {
    finite_dynamics dyn{params, topology->num_vertices(), topology};
    naive_reference ref{*topology, m, mu, alpha, beta};
    rng gen_engine = rng::from_stream(11, static_cast<std::uint64_t>(r));
    rng gen_reference = rng::from_stream(12, static_cast<std::uint64_t>(r));
    rng env_engine = rng::from_stream(13, static_cast<std::uint64_t>(r));
    rng env_reference = env_engine;  // identical reward streams
    for (int t = 0; t < horizon; ++t) {
      for (std::size_t j = 0; j < m; ++j) {
        rewards[j] = env_engine.next_bernoulli(etas[j]) ? 1 : 0;
      }
      dyn.step(rewards, gen_engine);
      for (std::size_t j = 0; j < m; ++j) {
        rewards[j] = env_reference.next_bernoulli(etas[j]) ? 1 : 0;
      }
      ref.step(rewards, gen_reference);
    }
    engine_pop.add(dyn.popularity()[0]);
    engine_adopt.add(static_cast<double>(dyn.adopters()));
    reference_pop.add(ref.popularity0());
    reference_adopt.add(static_cast<double>(ref.adopters()));
  }

  // ~4.5 sigma of the difference of two independent means.
  const double pop_tolerance =
      4.5 * std::sqrt((engine_pop.variance() + reference_pop.variance()) /
                      replications);
  const double adopt_tolerance =
      4.5 * std::sqrt((engine_adopt.variance() + reference_adopt.variance()) /
                      replications);
  EXPECT_NEAR(engine_pop.mean(), reference_pop.mean(), pop_tolerance);
  EXPECT_NEAR(engine_adopt.mean(), reference_adopt.mean(), adopt_tolerance);
}

TEST(network_dynamics, law_matches_naive_reference_sparse_mode) {
  check_law_against_reference(graph::graph::ring(48), 0.7);
}

TEST(network_dynamics, law_matches_naive_reference_dense_mode) {
  check_law_against_reference(graph::graph::two_cliques(26, 1), 0.7);
}

TEST(network_dynamics, sharded_step_matches_rebuilt_view) {
  // Sizes span several 8192-agent shards.  On BA 40 000 over a third of
  // the edges join vertices at least 2^14 apart: changed agents in one
  // shard update view rows owned by another.  After every step the
  // incremental view must equal the committed-neighbour counts rebuilt
  // from the choices and the graph, so a slip in the view-delta walk shows
  // at the step that makes it.
  rng topo_gen{5};
  const auto ba = std::make_shared<const graph::graph>(
      graph::graph::barabasi_albert(40000, 3, topo_gen));
  const auto ring = std::make_shared<const graph::graph>(graph::graph::ring(20000));
  std::size_t long_edges = 0;
  const auto adjacency = ba->adjacency();
  const auto offsets = ba->offsets();
  for (std::size_t u = 0; u < ba->num_vertices(); ++u) {
    for (std::size_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const std::size_t v = adjacency[e];
      long_edges += (u > v ? u - v : v - u) >= (std::size_t{1} << 14);
    }
  }
  ASSERT_GE(long_edges * 4, adjacency.size());
  const std::vector<std::pair<std::shared_ptr<const graph::graph>, std::size_t>> cases{
      {ba, 2},   // packed two-option layout, scattered rows
      {ba, 3},   // generic row layout
      {ring, 2}  // packed two-option layout, local rows
  };
  for (const auto& [g, m] : cases) {
    const std::size_t n = g->num_vertices();
    finite_dynamics dyn{make_params(m, 0.1, 0.65), n, g};
    rng gen{42};
    rng env_gen{43};
    std::vector<std::uint8_t> rewards(m);
    std::vector<std::uint32_t> rebuilt(n * m);
    for (int t = 0; t < 40; ++t) {
      for (auto& x : rewards) x = env_gen.next_bernoulli(0.5) ? 1 : 0;
      dyn.step(rewards, gen);
      std::fill(rebuilt.begin(), rebuilt.end(), 0);
      const auto choices = dyn.choices();
      for (std::size_t u = 0; u < n; ++u) {
        if (choices[u] < 0) continue;
        for (const auto v : g->neighbors(static_cast<graph::graph::vertex>(u))) {
          ++rebuilt[v * m + static_cast<std::size_t>(choices[u])];
        }
      }
      for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_EQ(dyn.committed_neighbors(v, j), rebuilt[v * m + j])
              << "N=" << n << " m=" << m << " t=" << t << " v=" << v << " j=" << j;
        }
      }
    }
  }
}

TEST(network_dynamics, committed_neighbors_needs_the_incremental_view) {
  const auto cliques =
      std::make_shared<const graph::graph>(graph::graph::two_cliques(40, 2));
  const finite_dynamics dense{make_params(2, 0.1, 0.7), 80, cliques};
  EXPECT_THROW((void)dense.committed_neighbors(0, 0), std::out_of_range);
  const finite_dynamics mixed{make_params(2, 0.1, 0.7), 80};
  EXPECT_THROW((void)mixed.committed_neighbors(0, 0), std::out_of_range);
  const finite_dynamics sparse{make_params(3, 0.1, 0.7), 64,
                               std::make_shared<const graph::graph>(graph::graph::ring(64))};
  EXPECT_EQ(sparse.committed_neighbors(63, 2), 0U);
  EXPECT_THROW((void)sparse.committed_neighbors(64, 0), std::out_of_range);
  EXPECT_THROW((void)sparse.committed_neighbors(0, 3), std::out_of_range);
}

TEST(network_dynamics, reset_rebuilds_the_view) {
  finite_dynamics dyn{make_params(2, 0.1, 0.65), 200,
                      std::make_shared<const graph::graph>(graph::graph::ring(200))};
  const std::vector<std::uint8_t> rewards{1, 0};

  rng first{7};
  std::vector<double> trajectory;
  for (int t = 0; t < 40; ++t) {
    dyn.step(rewards, first);
    trajectory.push_back(dyn.popularity()[0]);
  }

  dyn.reset();
  for (std::size_t v = 0; v < 200; ++v) {
    ASSERT_EQ(dyn.committed_neighbors(v, 0) + dyn.committed_neighbors(v, 1), 0U);
  }
  rng second{7};
  for (int t = 0; t < 40; ++t) {
    dyn.step(rewards, second);
    ASSERT_DOUBLE_EQ(dyn.popularity()[0], trajectory[static_cast<std::size_t>(t)])
        << "t=" << t;
  }
}

TEST(network_dynamics, dense_mode_scan_fallback_keeps_invariants) {
  // beta = 0.95 with all-bad signals: ~5% commitment on a degree-30 graph,
  // so the rejection budget is regularly exhausted and the exact scan
  // fallback runs; every invariant must hold throughout.
  finite_dynamics dyn{make_params(2, 0.05, 0.95), 60,
                      std::make_shared<const graph::graph>(graph::graph::two_cliques(30, 1))};
  rng gen{15};
  const std::vector<std::uint8_t> all_bad{0, 0};
  for (int t = 0; t < 300; ++t) {
    dyn.step(all_bad, gen);
    const auto s = dyn.stage_counts();
    EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::uint64_t{0}), 60U);
    std::uint64_t from_choices = 0;
    for (const std::int32_t c : dyn.choices()) from_choices += c >= 0;
    EXPECT_EQ(from_choices, dyn.adopters());
    double total = 0.0;
    for (const double q : dyn.popularity()) total += q;
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(network_dynamics, heterogeneous_rules_respected_in_network_mode) {
  // Half the ring never adopts; the adopter count can never exceed N/2 and
  // the never-adopt agents always sit out.
  std::vector<adoption_rule> rules(100, {0.0, 0.0});
  for (std::size_t i = 0; i < 50; ++i) rules[i] = {1.0, 1.0};
  finite_dynamics dyn{make_params(2, 0.2, 0.8), 100,
                      std::make_shared<const graph::graph>(graph::graph::ring(100)),
                      std::move(rules)};
  rng gen{23};
  for (int t = 0; t < 50; ++t) {
    dyn.step(std::vector<std::uint8_t>{1, 0}, gen);
    EXPECT_EQ(dyn.adopters(), 50U);
    for (std::size_t i = 50; i < 100; ++i) EXPECT_EQ(dyn.choices()[i], -1);
  }
}

}  // namespace
}  // namespace sgl::core
