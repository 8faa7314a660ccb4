// Statistical law-equivalence between the gossip protocol and the paper's
// §2.1 dynamics.  Labelled `statistical`, NOT `tier1`: a plain `ctest`
// still runs it (it is fully seeded, so reproducible), but the blocking
// CI gate (`ctest -L tier1`) does not — only the dedicated non-blocking
// statistical job and local full runs execute this file.
//
// In the degenerate synchronous configuration — zero latency, zero drops,
// lockstep replies (every SAMPLE_REPLY carries the choice latched at the
// round boundary), fully mixed, deep retry budget — one protocol round
// realizes exactly the two-stage update of §2.1:
//
//   stage 1: with prob. μ consider a uniform option, otherwise copy the
//            choice of a uniformly random committed *other* node of the
//            previous round (retrying past uncommitted nodes up to
//            max_retries, then uniform — with all nodes uncommitted this
//            degenerates to uniform, matching the engine's
//            uniform-after-empty-step law);
//   stage 2: commit with prob. β (good signal) / α (bad), else sit out.
//
// Two checks pin it down, mirroring tests/network_dynamics_test.cpp:
//   1. an EXACT one-round adoption law from the all-uncommitted start,
//      verified by a pooled chi-square test (support/gof) against the
//      closed-form category probabilities;
//   2. a multi-round statistical comparison of the protocol against
//      finite_dynamics (the agent-based engine, fully mixed, every agent
//      holding the same rule) on final
//      best-option popularity and adopter counts, within 4.5σ of the
//      difference of means.  Residual model gap: the protocol samples
//      among the OTHER N-1 nodes (no self-copy) and falls back to uniform
//      after max_retries uncommitted replies — both O(1/N)-small here.
//
// Everything is seeded, so the test is deterministic; the tolerances are
// chosen to be CI-stable (several σ of slack at these replication counts).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/finite_dynamics.h"
#include "core/params.h"
#include "identical_agents.h"
#include "protocol/protocol_engine.h"
#include "support/gof.h"
#include "support/rng.h"
#include "support/stats.h"

namespace {

using namespace sgl;

protocol::engine_config degenerate_sync(std::size_t m, double mu, double beta,
                                        double alpha) {
  protocol::engine_config config;
  config.dynamics.num_options = m;
  config.dynamics.mu = mu;
  config.dynamics.beta = beta;
  config.dynamics.alpha = alpha;
  config.protocol.base_latency = 0.0;
  config.protocol.jitter_mean = 0.0;
  config.protocol.drop_probability = 0.0;
  config.protocol.lockstep = true;
  config.protocol.max_retries = 16;
  return config;
}

TEST(protocol_law, one_round_adoption_matches_exact_law_chi_square) {
  // From the all-uncommitted start every stage-1 consideration is uniform
  // (the μ path and the retry-exhausted copy path coincide), so with the
  // fixed signal vector R = (1, 0, 1) each node independently lands in
  // category j with probability (1/m)·(β if R_j else α), and sits out with
  // the complementary mass.  Nodes and replications are independent, so
  // the pooled counts are multinomial — exactly what the chi-square test
  // assumes.
  constexpr std::size_t m = 3;
  constexpr std::size_t num_nodes = 200;
  constexpr int replications = 300;
  constexpr double mu = 0.1;
  constexpr double beta = 0.7;
  constexpr double alpha = 0.3;
  const std::vector<std::uint8_t> rewards{1, 0, 1};

  const protocol::engine_config config = degenerate_sync(m, mu, beta, alpha);
  std::vector<std::uint64_t> observed(m + 1, 0);  // categories + sit-out
  for (int r = 0; r < replications; ++r) {
    protocol::protocol_engine engine{config, num_nodes};
    rng gen = rng::from_stream(314, static_cast<std::uint64_t>(r));
    engine.step(rewards, gen);
    const auto counts = engine.adopter_counts();
    std::uint64_t committed = 0;
    for (std::size_t j = 0; j < m; ++j) {
      observed[j] += counts[j];
      committed += counts[j];
    }
    observed[m] += num_nodes - committed;
  }

  std::vector<double> expected(m + 1, 0.0);
  double commit_mass = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    expected[j] = (rewards[j] != 0 ? beta : alpha) / static_cast<double>(m);
    commit_mass += expected[j];
  }
  expected[m] = 1.0 - commit_mass;

  const gof_result result = chi_square_test(observed, expected);
  EXPECT_GT(result.p_value, 1e-3)
      << "chi-square statistic " << result.statistic
      << " over n = " << num_nodes * replications << " pooled draws";
}

TEST(protocol_law, multi_round_adoption_matches_finite_dynamics) {
  constexpr std::size_t m = 2;
  constexpr std::size_t num_nodes = 250;
  constexpr int replications = 250;
  constexpr int horizon = 25;
  constexpr double mu = 0.08;
  constexpr double beta = 0.7;
  constexpr double alpha = 0.3;
  const std::vector<double> etas{0.8, 0.3};

  const protocol::engine_config config = degenerate_sync(m, mu, beta, alpha);
  core::dynamics_params params = config.dynamics;

  running_stats protocol_pop, protocol_adopt, reference_pop, reference_adopt;
  std::vector<std::uint8_t> rewards(m);

  for (int r = 0; r < replications; ++r) {
    protocol::protocol_engine gossip{config, num_nodes};
    core::finite_dynamics reference = core::identical_agents(params, num_nodes);
    // Independent process streams and independent (identically distributed)
    // reward streams per engine: the comparison is distributional.
    rng gossip_gen = rng::from_stream(21, static_cast<std::uint64_t>(r));
    rng reference_gen = rng::from_stream(22, static_cast<std::uint64_t>(r));
    rng gossip_env = rng::from_stream(23, static_cast<std::uint64_t>(r));
    rng reference_env = rng::from_stream(24, static_cast<std::uint64_t>(r));
    for (int t = 0; t < horizon; ++t) {
      for (std::size_t j = 0; j < m; ++j) {
        rewards[j] = gossip_env.next_bernoulli(etas[j]) ? 1 : 0;
      }
      gossip.step(rewards, gossip_gen);
      for (std::size_t j = 0; j < m; ++j) {
        rewards[j] = reference_env.next_bernoulli(etas[j]) ? 1 : 0;
      }
      reference.step(rewards, reference_gen);
    }
    const auto gossip_counts = gossip.adopter_counts();
    const auto reference_counts = reference.adopter_counts();
    protocol_pop.add(gossip.popularity()[0]);
    protocol_adopt.add(static_cast<double>(std::accumulate(
        gossip_counts.begin(), gossip_counts.end(), std::uint64_t{0})));
    reference_pop.add(reference.popularity()[0]);
    reference_adopt.add(static_cast<double>(std::accumulate(
        reference_counts.begin(), reference_counts.end(), std::uint64_t{0})));
  }

  const double pop_tolerance =
      4.5 * std::sqrt((protocol_pop.variance() + reference_pop.variance()) /
                      replications);
  const double adopt_tolerance =
      4.5 * std::sqrt((protocol_adopt.variance() + reference_adopt.variance()) /
                      replications);
  EXPECT_NEAR(protocol_pop.mean(), reference_pop.mean(), pop_tolerance);
  EXPECT_NEAR(protocol_adopt.mean(), reference_adopt.mean(), adopt_tolerance);
}

TEST(protocol_law, empty_round_reverts_popularity_to_uniform) {
  // The degenerate analogue of the uniform-after-empty-step law: with
  // α = β = 0 nobody ever commits, every round is empty, and popularity
  // stays uniform — the same pinned semantics as every other engine.
  protocol::engine_config config = degenerate_sync(2, 0.1, 0.0, 0.0);
  protocol::protocol_engine engine{config, 50};
  rng gen{9};
  const std::vector<std::uint8_t> rewards{1, 1};
  for (int t = 1; t <= 15; ++t) {
    engine.step(rewards, gen);
    EXPECT_EQ(engine.empty_steps(), static_cast<std::uint64_t>(t));
    for (const double q : engine.popularity()) EXPECT_DOUBLE_EQ(q, 0.5);
  }
}

}  // namespace
