// Seeded property tests for the v3 step kernels (core/step_kernel.h) and
// the engine paths that consume them.  The population grid deliberately
// straddles every batching boundary — lane width (7/8/9), shard size
// (8191/8192/8193) and the degenerate N = 1 — because the classic failure
// of a vectorized loop with a scalar remainder is an agent stepped twice,
// skipped, or read from the wrong lane at exactly those edges.  The engine
// tests run whatever ISA the dispatcher resolved (SGL_KERNEL=generic forces
// the generic TU); the direct kernel tests also compare the generic TU
// against the active ISA bit for bit.

#include "core/step_kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/finite_dynamics.h"
#include "core/params.h"
#include "graph/graph.h"
#include "support/rng.h"

namespace sgl::core {
namespace {

// Lane-width and shard-size straddles (shard_size = 8192 in
// finite_dynamics; lane_count is 4 or 8 depending on the compiled ABI).
constexpr std::size_t k_population_grid[] = {1, 7, 8, 9, 31, 32, 33,
                                             8191, 8192, 8193};

dynamics_params make_params(std::size_t m, double mu, double beta,
                            double alpha = -1.0) {
  dynamics_params p;
  p.num_options = m;
  p.mu = mu;
  p.beta = beta;
  p.alpha = alpha;
  return p;
}

/// Mildly heterogeneous rules so the per-agent (not batched) path runs.
std::vector<adoption_rule> varied_rules(std::size_t n) {
  std::vector<adoption_rule> rules(n);
  for (std::size_t i = 0; i < n; ++i) {
    rules[i].alpha = 0.05 + 0.3 * static_cast<double>(i % 5) / 5.0;
    rules[i].beta = 0.6 + 0.35 * static_cast<double>(i % 7) / 7.0;
  }
  return rules;
}

/// Shared single-step invariants: choices in range, counters consistent
/// with the agent array, popularity a distribution.
void check_step_invariants(const finite_dynamics& dyn, std::size_t n,
                           std::size_t m, const char* label) {
  const auto choices = dyn.choices();
  ASSERT_EQ(choices.size(), n) << label;
  std::vector<std::uint64_t> counted(m, 0);
  std::uint64_t committed = 0;
  for (const std::int32_t c : choices) {
    ASSERT_GE(c, -1) << label;
    ASSERT_LT(c, static_cast<std::int32_t>(m)) << label;
    if (c >= 0) {
      ++counted[static_cast<std::size_t>(c)];
      ++committed;
    }
  }
  const auto adopters = dyn.adopter_counts();
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(adopters[j], counted[j]) << label << " option " << j;
  }
  EXPECT_EQ(dyn.adopters(), committed) << label;
  // Stage 1 considers exactly one option per agent, every agent, every
  // step — the "stepped exactly once" invariant at the counter level.
  const auto stage = dyn.stage_counts();
  EXPECT_EQ(std::accumulate(stage.begin(), stage.end(), std::uint64_t{0}), n)
      << label;
  double mass = 0.0;
  for (const double q : dyn.popularity()) {
    EXPECT_GE(q, 0.0) << label;
    mass += q;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9) << label;
}

TEST(kernel_property, network_invariants_on_every_batch_boundary) {
  const std::vector<std::uint8_t> rewards{1, 0};
  for (const std::size_t n : k_population_grid) {
    finite_dynamics dyn{make_params(2, 0.1, 0.7, 0.2), n,
                        std::make_shared<const graph::graph>(graph::graph::ring(n))};
    rng gen{0x51c7u + n};
    for (int t = 0; t < 6; ++t) {
      dyn.step(rewards, gen);
      check_step_invariants(
          dyn, n, 2,
          ("network N=" + std::to_string(n) + " t=" + std::to_string(t)).c_str());
    }
  }
}

TEST(kernel_property, network_heterogeneous_rules_share_the_kernel) {
  const std::vector<std::uint8_t> rewards{0, 1};
  for (const std::size_t n : {std::size_t{9}, std::size_t{8193}}) {
    finite_dynamics dyn{make_params(2, 0.15, 0.8), n,
                        std::make_shared<const graph::graph>(graph::graph::ring(n)),
                        varied_rules(n)};
    rng gen{0xbeefu + n};
    for (int t = 0; t < 4; ++t) {
      dyn.step(rewards, gen);
      check_step_invariants(dyn, n, 2, "network heterogeneous");
    }
  }
}

TEST(kernel_property, mixed_invariants_on_every_batch_boundary) {
  for (const std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{10}}) {
    std::vector<std::uint8_t> rewards(m, 0);
    rewards[0] = 1;
    if (m > 2) rewards[2] = 1;
    for (const std::size_t n : k_population_grid) {
      // Heterogeneous rules → per-agent path.
      finite_dynamics dyn{make_params(m, 0.1, 0.7), n, nullptr, varied_rules(n)};
      rng gen{0xabcdu + n * 31 + m};
      for (int t = 0; t < 5; ++t) {
        dyn.step(rewards, gen);
        check_step_invariants(
            dyn, n, m,
            ("mixed N=" + std::to_string(n) + " m=" + std::to_string(m)).c_str());
      }
    }
  }
}

TEST(kernel_property, network_bit_identical_across_reuse) {
  const std::size_t n = 8193;
  const std::vector<std::uint8_t> rewards{1, 0};
  const auto g = std::make_shared<const graph::graph>(graph::graph::ring(n));
  const auto run = [&](bool reuse) {
    finite_dynamics dyn{make_params(2, 0.1, 0.7, 0.2), n, g};
    if (reuse) {
      // Dirty the state, then reset: a reused engine must replay the
      // reference trajectory exactly.
      rng warm{99};
      for (int t = 0; t < 3; ++t) dyn.step(rewards, warm);
      dyn.reset();
    }
    rng gen{7};
    std::vector<std::int32_t> trace;
    for (int t = 0; t < 8; ++t) {
      dyn.step(rewards, gen);
      trace.insert(trace.end(), dyn.choices().begin(), dyn.choices().end());
    }
    return trace;
  };
  EXPECT_EQ(run(true), run(false));
}

// --- direct kernel calls ----------------------------------------------------

/// Builds a self-consistent net2 input of n agents: packed view rows with
/// small committed counts, previous choices, homogeneous thresholds.
struct net2_fixture {
  std::vector<std::uint32_t> rows;
  std::vector<std::int32_t> previous;
  std::vector<std::int32_t> choices;
  std::vector<std::uint64_t> changed;
  std::uint32_t changed_len = 0;
  std::uint64_t stage[2] = {0, 0};
  std::uint64_t adopt[2] = {0, 0};

  explicit net2_fixture(std::size_t n, std::int32_t sentinel) {
    rng gen{2024};
    rows.resize(n);
    previous.resize(n);
    choices.assign(n, sentinel);
    changed.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c0 = static_cast<std::uint32_t>(gen.next_u64() % 5);
      const std::uint32_t c1 = static_cast<std::uint32_t>(gen.next_u64() % 5);
      rows[i] = c0 | (c1 << 16);
      previous[i] = static_cast<std::int32_t>(gen.next_u64() % 3) - 1;
    }
  }

  kernel::net2_args args(std::size_t lo, std::size_t hi,
                         std::uint64_t step_seed) {
    kernel::net2_args a;
    a.step_seed = step_seed;
    a.lo = lo;
    a.hi = hi;
    a.rows = rows.data();
    a.previous = previous.data();
    a.choices = choices.data();
    a.t_mu = prob_to_u64(0.1);
    a.thr_explore[0] = prob_to_u64(0.02);
    a.thr_explore[1] = prob_to_u64(0.01);
    a.thr_copy[0] = prob_to_u64(0.73);
    a.thr_copy[1] = prob_to_u64(0.28);
    a.changed = changed.data();
    a.changed_len = &changed_len;
    a.stage = stage;
    a.adopt = adopt;
    return a;
  }
};

TEST(kernel_property, net2_writes_exactly_the_requested_range) {
  constexpr std::int32_t sentinel = -7;
  for (const std::size_t n : k_population_grid) {
    // Sub-ranges stress the lane alignment of lo as well as hi.
    const std::size_t lo = n / 3;
    net2_fixture fx(n, sentinel);
    auto a = fx.args(lo, n, 0x5eedULL * (n + 1));
    kernel::net2_step()(a);
    for (std::size_t i = 0; i < lo; ++i) {
      ASSERT_EQ(fx.choices[i], sentinel) << "agent " << i << " below lo written";
    }
    std::uint64_t committed = 0;
    for (std::size_t i = lo; i < n; ++i) {
      ASSERT_NE(fx.choices[i], sentinel) << "agent " << i << " skipped";
      ASSERT_GE(fx.choices[i], -1);
      ASSERT_LT(fx.choices[i], 2);
      if (fx.choices[i] >= 0) ++committed;
    }
    // Each agent considered exactly one option and adopted at most once.
    EXPECT_EQ(fx.stage[0] + fx.stage[1], n - lo);
    EXPECT_EQ(fx.adopt[0] + fx.adopt[1], committed);
    // The changed list matches a scalar recount, in order.
    std::uint32_t expected_len = 0;
    for (std::size_t i = lo; i < n; ++i) {
      if (fx.choices[i] == fx.previous[i]) continue;
      const std::uint64_t entry =
          i |
          (static_cast<std::uint64_t>(
               static_cast<std::uint16_t>(fx.previous[i] + 1))
           << 32) |
          (static_cast<std::uint64_t>(
               static_cast<std::uint16_t>(fx.choices[i] + 1))
           << 48);
      ASSERT_LT(expected_len, fx.changed_len);
      EXPECT_EQ(fx.changed[expected_len], entry) << "changed entry " << expected_len;
      ++expected_len;
    }
    EXPECT_EQ(fx.changed_len, expected_len);
  }
}

TEST(kernel_property, net2_generic_and_active_isa_bit_identical) {
  for (const std::size_t n : k_population_grid) {
    net2_fixture generic_fx(n, -7);
    net2_fixture active_fx(n, -7);
    auto ga = generic_fx.args(0, n, 0xfeedULL + n);
    auto aa = active_fx.args(0, n, 0xfeedULL + n);
    kernel::net2_step_generic(ga);
    kernel::net2_step()(aa);
    EXPECT_EQ(generic_fx.choices, active_fx.choices) << "N=" << n;
    EXPECT_EQ(generic_fx.changed_len, active_fx.changed_len) << "N=" << n;
    generic_fx.changed.resize(generic_fx.changed_len);
    active_fx.changed.resize(active_fx.changed_len);
    EXPECT_EQ(generic_fx.changed, active_fx.changed) << "N=" << n;
    EXPECT_EQ(generic_fx.stage[0], active_fx.stage[0]);
    EXPECT_EQ(generic_fx.stage[1], active_fx.stage[1]);
    EXPECT_EQ(generic_fx.adopt[0], active_fx.adopt[0]);
    EXPECT_EQ(generic_fx.adopt[1], active_fx.adopt[1]);
  }
}

TEST(kernel_property, mixed_generic_and_active_isa_bit_identical) {
  for (const std::size_t n : k_population_grid) {
    for (const std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{10}}) {
      std::vector<std::uint64_t> alpha_thr(n);
      std::vector<std::uint64_t> beta_thr(n);
      const auto rules = varied_rules(n);
      for (std::size_t i = 0; i < n; ++i) {
        alpha_thr[i] = prob_to_u64(rules[i].alpha);
        beta_thr[i] = prob_to_u64(rules[i].beta);
      }
      std::vector<std::uint64_t> pop_cdf(m - 1);
      for (std::size_t j = 0; j + 1 < m; ++j) {
        pop_cdf[j] = prob_to_u64(static_cast<double>(j + 1) /
                                 static_cast<double>(m));
      }
      const auto run = [&](kernel::mixed_fn fn) {
        std::vector<std::int32_t> choices(n, -7);
        std::vector<std::uint32_t> considered(n, 0xffffffffu);
        kernel::mixed_args a;
        a.step_seed = 0xc0deULL + n * 131 + m;
        a.n = n;
        a.m = m;
        a.t_mu = prob_to_u64(0.1);
        a.pop_cdf = pop_cdf.data();
        a.reward_bits = 0b101;
        a.alpha_thr = alpha_thr.data();
        a.beta_thr = beta_thr.data();
        a.choices = choices.data();
        a.considered = considered.data();
        fn(a);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_NE(choices[i], -7) << "agent " << i << " skipped";
          EXPECT_LT(considered[i], m) << "agent " << i;
        }
        return std::pair{choices, considered};
      };
      EXPECT_EQ(run(kernel::mixed_step_generic), run(kernel::mixed_step()))
          << "N=" << n << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace sgl::core
