// Seeded property tests for the v3 step kernels (core/step_kernel.h) and
// the engine paths that consume them.  The population grid deliberately
// straddles every batching boundary — lane width (7/8/9), shard size
// (8191/8192/8193) and the degenerate N = 1 — because the classic failure
// of a vectorized loop with a scalar remainder is an agent stepped twice,
// skipped, or read from the wrong lane at exactly those edges.  The engine
// tests run whatever ISA the dispatcher resolved (SGL_KERNEL=generic forces
// the generic TU); the direct kernel tests compare the generic TU bit for
// bit against the active ISA and against every vector TU that is compiled
// in and that the CPU runs, whichever one the dispatcher would pick.

#include "core/step_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
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
#include "support/simd.h"

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

constexpr std::uint64_t k_max = ~std::uint64_t{0};

/// One kernel entry point to pin against the generic TU.
struct kernel_entry {
  std::string name;
  kernel::net2_fn net2;
  kernel::mixed_fn mixed;
};

/// The dispatcher's pick, then every vector TU that is compiled in and
/// that this CPU runs.  The per-ISA entries are called directly, so a host
/// whose dispatcher picks AVX-512 still tests its AVX2 TU, and so does a
/// run under SGL_KERNEL=generic.
std::vector<kernel_entry> vector_entries() {
  std::vector<kernel_entry> out{
      {std::string{"active ("} + simd::isa_name(kernel::active_isa()) + ")",
       kernel::net2_step(), kernel::mixed_step()}};
  if (kernel::avx2_kernels_compiled() && simd::cpu_supports(simd::isa::avx2)) {
    out.push_back({"avx2", &kernel::net2_step_avx2, &kernel::mixed_step_avx2});
  }
  if (kernel::avx512_kernels_compiled() && simd::cpu_supports(simd::isa::avx512)) {
    out.push_back({"avx512", &kernel::net2_step_avx512, &kernel::mixed_step_avx512});
  }
  if (kernel::neon_kernels_compiled() && simd::cpu_supports(simd::isa::neon)) {
    out.push_back({"neon", &kernel::net2_step_neon, &kernel::mixed_step_neon});
  }
  return out;
}

/// Per-agent adoption probabilities with both endpoints mixed in: agents
/// with p = 0 never adopt, agents with p = 1 always do.
std::vector<std::uint64_t> per_agent_thresholds(std::size_t n, std::uint64_t seed) {
  rng gen{seed};
  std::vector<std::uint64_t> thr(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t draw = gen.next_u64();
    switch (i % 5) {
      case 1: thr[i] = 0; break;
      case 3: thr[i] = k_max; break;
      default: thr[i] = prob_to_u64(static_cast<double>(draw % 1000) / 1000.0);
    }
  }
  return thr;
}

/// Rule set of one net2 call: mu (both endpoints included), then either
/// homogeneous option probabilities p0/p1 fused into thresholds as
/// finite_dynamics does, or per-agent p_reward0/1 rows.
struct net2_case {
  const char* label;
  double mu;
  double p0;
  double p1;
  bool per_agent;
};

constexpr net2_case k_net2_cases[] = {
    {"homogeneous mu=0.1", 0.1, 0.7, 0.3, false},
    {"homogeneous mu=0", 0.0, 0.7, 0.3, false},
    {"homogeneous mu=1", 1.0, 0.7, 0.3, false},
    {"homogeneous p0=1 p1=0", 0.1, 1.0, 0.0, false},
    {"per-agent mu=0.1", 0.1, 0.0, 0.0, true},
    {"per-agent mu=0", 0.0, 0.0, 0.0, true},
    {"per-agent mu=1", 1.0, 0.0, 0.0, true},
};

/// Slots past the shard's hi − lo changed-list entries: the kernel must
/// never write them.
constexpr std::size_t k_changed_guard = 16;
constexpr std::uint64_t k_changed_sentinel = 0xdeadbeefdeadbeefULL;

/// Builds a self-consistent net2 input of n agents: packed view rows with
/// small committed counts, previous choices, and per-agent rows.
struct net2_fixture {
  std::vector<std::uint32_t> rows;
  std::vector<std::int32_t> previous;
  std::vector<std::int32_t> choices;
  std::vector<std::uint64_t> p_reward0;
  std::vector<std::uint64_t> p_reward1;
  std::vector<std::uint64_t> changed;
  std::uint32_t changed_len = 0;
  std::uint64_t stage[2] = {0, 0};
  std::uint64_t adopt[2] = {0, 0};

  explicit net2_fixture(std::size_t n, std::int32_t sentinel)
      : p_reward0(per_agent_thresholds(n, 31)),
        p_reward1(per_agent_thresholds(n, 37)) {
    rng gen{2024};
    rows.resize(n);
    previous.resize(n);
    choices.assign(n, sentinel);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c0 = static_cast<std::uint32_t>(gen.next_u64() % 5);
      const std::uint32_t c1 = static_cast<std::uint32_t>(gen.next_u64() % 5);
      rows[i] = c0 | (c1 << 16);
      previous[i] = static_cast<std::int32_t>(gen.next_u64() % 3) - 1;
    }
  }

  /// The changed list starts at its own offset 0 and has room for exactly
  /// hi − lo entries, then the guard.
  kernel::net2_args args(std::size_t lo, std::size_t hi, std::uint64_t step_seed,
                         const net2_case& rule = k_net2_cases[0]) {
    changed.assign(hi - lo + k_changed_guard, k_changed_sentinel);
    kernel::net2_args a;
    a.step_seed = step_seed;
    a.lo = lo;
    a.hi = hi;
    a.rows = rows.data();
    a.previous = previous.data();
    a.choices = choices.data();
    a.t_mu = prob_to_u64(rule.mu);
    if (rule.per_agent) {
      a.p_reward0 = p_reward0.data();
      a.p_reward1 = p_reward1.data();
    } else {
      const double p[2] = {rule.p0, rule.p1};
      for (std::size_t j = 0; j < 2; ++j) {
        a.thr_explore[j] = prob_to_u64(rule.mu * p[j]);
        a.thr_copy[j] = prob_to_u64(rule.mu + (1.0 - rule.mu) * p[j]);
      }
    }
    a.changed = changed.data();
    a.changed_len = &changed_len;
    a.stage = stage;
    a.adopt = adopt;
    return a;
  }

  /// Asserts the guard past hi − lo is untouched, then drops the
  /// unspecified slots past changed_len.
  void trim_changed(std::size_t slots, const std::string& label) {
    for (std::size_t k = slots; k < changed.size(); ++k) {
      ASSERT_EQ(changed[k], k_changed_sentinel) << label << ": slot " << k
                                                << " past hi - lo written";
    }
    ASSERT_LE(changed_len, slots) << label;
    changed.resize(changed_len);
  }
};

TEST(kernel_property, net2_writes_exactly_the_requested_range) {
  constexpr std::int32_t sentinel = -7;
  auto entries = vector_entries();
  entries.push_back({"generic", &kernel::net2_step_generic, &kernel::mixed_step_generic});
  for (const auto& entry : entries) {
    for (const std::size_t n : k_population_grid) {
      // Sub-ranges stress the lane alignment of lo as well as hi.
      const std::size_t lo = n / 3;
      const std::string label = entry.name + " N=" + std::to_string(n);
      net2_fixture fx(n, sentinel);
      auto a = fx.args(lo, n, 0x5eedULL * (n + 1));
      entry.net2(a);
      for (std::size_t i = 0; i < lo; ++i) {
        ASSERT_EQ(fx.choices[i], sentinel) << label << " agent " << i << " below lo written";
      }
      std::uint64_t committed = 0;
      for (std::size_t i = lo; i < n; ++i) {
        ASSERT_NE(fx.choices[i], sentinel) << label << " agent " << i << " skipped";
        ASSERT_GE(fx.choices[i], -1);
        ASSERT_LT(fx.choices[i], 2);
        if (fx.choices[i] >= 0) ++committed;
      }
      // Each agent considered exactly one option and adopted at most once.
      EXPECT_EQ(fx.stage[0] + fx.stage[1], n - lo) << label;
      EXPECT_EQ(fx.adopt[0] + fx.adopt[1], committed) << label;
      fx.trim_changed(n - lo, label);
      // The changed list matches a scalar recount, in order.
      std::uint32_t expected_len = 0;
      for (std::size_t i = lo; i < n; ++i) {
        if (fx.choices[i] == fx.previous[i]) continue;
        const std::uint64_t entry_bits =
            i |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint16_t>(fx.previous[i] + 1))
             << 32) |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint16_t>(fx.choices[i] + 1))
             << 48);
        ASSERT_LT(expected_len, fx.changed_len) << label;
        EXPECT_EQ(fx.changed[expected_len], entry_bits)
            << label << " changed entry " << expected_len;
        ++expected_len;
      }
      EXPECT_EQ(fx.changed_len, expected_len) << label;
    }
  }
}

TEST(kernel_property, net2_generic_and_active_isa_bit_identical) {
  const auto entries = vector_entries();
  for (const std::size_t n : k_population_grid) {
    // lo = 0, lo = n/3 (off the lane grid for most n) and lo = 5.
    for (const std::size_t lo : {std::size_t{0}, n / 3, std::min<std::size_t>(n, 5)}) {
      for (const net2_case& rule : k_net2_cases) {
        const std::uint64_t seed = 0xfeedULL + n * 7 + lo;
        const std::string base = std::string{rule.label} + " N=" +
                                 std::to_string(n) + " lo=" + std::to_string(lo);
        net2_fixture generic_fx(n, -7);
        auto ga = generic_fx.args(lo, n, seed, rule);
        kernel::net2_step_generic(ga);
        generic_fx.trim_changed(n - lo, "generic " + base);
        for (const auto& entry : entries) {
          const std::string label = entry.name + " " + base;
          net2_fixture fx(n, -7);
          auto a = fx.args(lo, n, seed, rule);
          entry.net2(a);
          fx.trim_changed(n - lo, label);
          EXPECT_EQ(generic_fx.choices, fx.choices) << label;
          EXPECT_EQ(generic_fx.changed_len, fx.changed_len) << label;
          EXPECT_EQ(generic_fx.changed, fx.changed) << label;
          EXPECT_EQ(generic_fx.stage[0], fx.stage[0]) << label;
          EXPECT_EQ(generic_fx.stage[1], fx.stage[1]) << label;
          EXPECT_EQ(generic_fx.adopt[0], fx.adopt[0]) << label;
          EXPECT_EQ(generic_fx.adopt[1], fx.adopt[1]) << label;
        }
      }
    }
  }
}

TEST(kernel_property, mixed_generic_and_active_isa_bit_identical) {
  const auto entries = vector_entries();
  for (const std::size_t n : k_population_grid) {
    // Per-agent thresholds from varied_rules, with p = 0 and p = 1 agents.
    std::vector<std::uint64_t> alpha_thr(n);
    std::vector<std::uint64_t> beta_thr(n);
    const auto rules = varied_rules(n);
    for (std::size_t i = 0; i < n; ++i) {
      alpha_thr[i] = i % 11 == 3 ? 0 : prob_to_u64(rules[i].alpha);
      beta_thr[i] = i % 13 == 5 ? k_max : prob_to_u64(rules[i].beta);
    }
    for (const std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{10}}) {
      std::vector<std::uint64_t> pop_cdf(m - 1);
      for (std::size_t j = 0; j + 1 < m; ++j) {
        pop_cdf[j] = prob_to_u64(static_cast<double>(j + 1) /
                                 static_cast<double>(m));
      }
      for (const double mu : {0.1, 0.0, 1.0}) {
        const auto run = [&](kernel::mixed_fn fn) {
          std::vector<std::int32_t> choices(n, -7);
          std::vector<std::uint32_t> considered(n, 0xffffffffu);
          kernel::mixed_args a;
          a.step_seed = 0xc0deULL + n * 131 + m;
          a.n = n;
          a.m = m;
          a.t_mu = prob_to_u64(mu);
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
        const auto expected = run(kernel::mixed_step_generic);
        for (const auto& entry : entries) {
          EXPECT_EQ(expected, run(entry.mixed))
              << entry.name << " N=" << n << " m=" << m << " mu=" << mu;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sgl::core
