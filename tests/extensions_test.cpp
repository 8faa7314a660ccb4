// Tests for the extension modules: the Markov regime-switching environment.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "env/markov_rewards.h"
#include "env/reward_model.h"
#include "support/rng.h"
#include "support/stats.h"

namespace sgl {
namespace {

// --- markov_rewards -----------------------------------------------------------

env::markov_rewards make_two_regime(std::uint64_t horizon, std::uint64_t seed,
                                    double stay = 0.95) {
  // Bull: option 0 good; bear: option 1 good.
  return env::markov_rewards{{{0.85, 0.3}, {0.3, 0.85}},
                             {{stay, 1.0 - stay}, {1.0 - stay, stay}},
                             horizon,
                             seed};
}

TEST(markov_rewards, path_is_deterministic_given_seed) {
  const auto a = make_two_regime(500, 42);
  const auto b = make_two_regime(500, 42);
  for (std::uint64_t t = 1; t <= 500; ++t) {
    ASSERT_EQ(a.regime_at(t), b.regime_at(t));
  }
  const auto c = make_two_regime(500, 43);
  std::uint64_t diffs = 0;
  for (std::uint64_t t = 1; t <= 500; ++t) {
    if (a.regime_at(t) != c.regime_at(t)) ++diffs;
  }
  EXPECT_GT(diffs, 0U);
}

TEST(markov_rewards, starts_in_regime_zero_and_switches) {
  const auto model = make_two_regime(2000, 7);
  EXPECT_EQ(model.regime_at(1), 0U);
  // With stay = 0.95 over 2000 steps we expect ~100 switches.
  EXPECT_GT(model.num_switches(), 40U);
  EXPECT_LT(model.num_switches(), 250U);
}

TEST(markov_rewards, means_follow_the_regime_path) {
  const auto model = make_two_regime(300, 11);
  for (std::uint64_t t = 1; t <= 300; ++t) {
    const double expected0 = model.regime_at(t) == 0 ? 0.85 : 0.3;
    ASSERT_DOUBLE_EQ(model.mean(t, 0), expected0);
    // Best option flips with the regime.
    ASSERT_EQ(model.best_option(t), model.regime_at(t));
  }
  EXPECT_FALSE(model.is_stationary());
}

TEST(markov_rewards, sampling_matches_current_regime) {
  auto model = make_two_regime(100, 13, /*stay=*/1.0);  // never leaves regime 0
  rng gen{3};
  std::vector<std::uint8_t> r(2);
  running_stats first;
  for (std::uint64_t t = 1; t <= 20000; ++t) {
    model.sample(1 + (t % 100), gen, r);
    first.add(r[0]);
  }
  EXPECT_NEAR(first.mean(), 0.85, 0.01);
}

TEST(markov_rewards, steps_beyond_horizon_hold_last_regime) {
  const auto model = make_two_regime(50, 17);
  EXPECT_EQ(model.regime_at(10000), model.regime_at(50));
}

TEST(markov_rewards, validates_construction) {
  EXPECT_THROW((env::markov_rewards{{}, {}, 10, 1}), std::invalid_argument);
  EXPECT_THROW((env::markov_rewards{{{0.5}, {0.5, 0.5}}, {{1.0}}, 10, 1}),
               std::invalid_argument);
  EXPECT_THROW((env::markov_rewards{{{1.5}}, {{1.0}}, 10, 1}), std::invalid_argument);
  EXPECT_THROW((env::markov_rewards{{{0.5}}, {{0.5}}, 10, 1}),
               std::invalid_argument);  // row does not sum to 1
  EXPECT_THROW((env::markov_rewards{{{0.5}}, {{1.0}}, 0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace sgl
