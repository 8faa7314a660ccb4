#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "core/params.h"
#include "core/theory.h"

namespace sgl::core {
namespace {

// --- dynamics_params ----------------------------------------------------------

TEST(dynamics_params, delta_formula) {
  dynamics_params p;
  p.beta = 0.6;
  EXPECT_NEAR(p.delta(), std::log(0.6 / 0.4), 1e-12);
  p.beta = 0.5;
  EXPECT_NEAR(p.delta(), 0.0, 1e-12);
  p.beta = std::numbers::e / (std::numbers::e + 1.0);
  EXPECT_NEAR(p.delta(), 1.0, 1e-12);  // ln(e) = 1 at the cap
}

TEST(dynamics_params, delta_requires_interior_beta) {
  dynamics_params p;
  p.beta = 1.0;
  EXPECT_THROW((void)p.delta(), std::domain_error);
  p.beta = 0.0;
  EXPECT_THROW((void)p.delta(), std::domain_error);
}

TEST(dynamics_params, alpha_convention) {
  dynamics_params p;
  p.beta = 0.7;
  p.alpha = -1.0;
  EXPECT_NEAR(p.resolved_alpha(), 0.3, 1e-12);
  p.alpha = 0.1;
  EXPECT_DOUBLE_EQ(p.resolved_alpha(), 0.1);
}

TEST(dynamics_params, validation) {
  dynamics_params p;
  EXPECT_NO_THROW(p.validate());
  p.num_options = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = dynamics_params{};
  p.mu = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = dynamics_params{};
  p.beta = 0.4;
  p.alpha = 0.6;  // alpha > beta
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = dynamics_params{};
  p.beta = 1.2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(dynamics_params, theorem_conditions) {
  dynamics_params p = theorem_params(10, 0.6);
  EXPECT_TRUE(p.satisfies_theorem_conditions());
  EXPECT_NEAR(p.mu, p.delta() * p.delta() / 6.0, 1e-12);

  p.mu = 0.9;  // way above the cap
  EXPECT_FALSE(p.satisfies_theorem_conditions());

  p = theorem_params(10, 0.6);
  p.alpha = 0.2;  // breaks alpha = 1 - beta
  EXPECT_FALSE(p.satisfies_theorem_conditions());

  dynamics_params too_big;
  too_big.beta = 0.9;  // above e/(e+1)
  too_big.mu = 0.01;
  EXPECT_FALSE(too_big.satisfies_theorem_conditions());
}

TEST(theorem_params, rejects_out_of_range_beta) {
  EXPECT_THROW((void)theorem_params(5, 0.5), std::invalid_argument);   // delta = 0
  EXPECT_THROW((void)theorem_params(5, 0.9), std::invalid_argument);   // above cap
  EXPECT_NO_THROW((void)theorem_params(5, 0.7));
}

// --- theory constants ------------------------------------------------------------

TEST(theory, delta_and_caps) {
  EXPECT_NEAR(theory::delta(0.6), std::log(1.5), 1e-12);
  EXPECT_NEAR(theory::beta_cap(), std::numbers::e / (std::numbers::e + 1.0), 1e-12);
  EXPECT_NEAR(theory::mu_cap(0.6), std::log(1.5) * std::log(1.5) / 6.0, 1e-12);
  EXPECT_THROW((void)theory::delta(0.0), std::invalid_argument);
  EXPECT_THROW((void)theory::delta(1.0), std::invalid_argument);
}

TEST(theory, horizons) {
  const double d = theory::delta(0.6);
  EXPECT_NEAR(theory::min_horizon(10, 0.6), std::log(10.0) / (d * d), 1e-12);
  EXPECT_DOUBLE_EQ(theory::min_horizon(1, 0.6), 1.0);
  // Larger m needs longer horizons; larger delta needs shorter ones.
  EXPECT_GT(theory::min_horizon(100, 0.6), theory::min_horizon(10, 0.6));
  EXPECT_GT(theory::min_horizon(10, 0.55), theory::min_horizon(10, 0.7));
}

TEST(theory, regret_bounds_scale_with_delta) {
  EXPECT_NEAR(theory::infinite_regret_bound(0.6), 3.0 * std::log(1.5), 1e-12);
  EXPECT_NEAR(theory::finite_regret_bound(0.6), 2.0 * theory::infinite_regret_bound(0.6),
              1e-12);
  EXPECT_LT(theory::infinite_regret_bound(0.55), theory::infinite_regret_bound(0.7));
}

TEST(theory, best_mass_lower_bound) {
  // Large gap, small delta: informative bound.
  const double b = theory::best_mass_lower_bound(0.55, 0.9);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 1.0);
  // Tiny gap: bound clamps to zero rather than going negative.
  EXPECT_DOUBLE_EQ(theory::best_mass_lower_bound(0.7, 0.01), 0.0);
  EXPECT_THROW((void)theory::best_mass_lower_bound(0.6, 0.0), std::invalid_argument);
}

TEST(theory, concentration_radii_formulas) {
  const double n = 1e6;
  const double dp = theory::delta_prime(10, 0.05, n);
  EXPECT_NEAR(dp, std::sqrt(30.0 * 10.0 * std::log(n) / (0.05 * n)), 1e-12);
  const double ddp = theory::delta_double_prime(10, 0.05, 0.6, n);
  EXPECT_NEAR(ddp, std::sqrt(60.0 * 10.0 * std::log(n) / (0.4 * 0.05 * n)), 1e-12);
  EXPECT_GT(ddp, dp);  // stage 2 is noisier
  EXPECT_THROW((void)theory::delta_prime(10, 0.0, n), std::invalid_argument);
  EXPECT_THROW((void)theory::delta_prime(10, 0.05, 1.0), std::invalid_argument);
}

TEST(theory, radii_shrink_with_population) {
  EXPECT_GT(theory::delta_double_prime(5, 0.05, 0.6, 1e4),
            theory::delta_double_prime(5, 0.05, 0.6, 1e6));
}

TEST(theory, coupling_bound_grows_like_powers_of_five) {
  const double b1 = theory::coupling_bound(1, 5, 0.05, 0.6, 1e6);
  const double b2 = theory::coupling_bound(2, 5, 0.05, 0.6, 1e6);
  const double b3 = theory::coupling_bound(3, 5, 0.05, 0.6, 1e6);
  EXPECT_NEAR(b2 / b1, 5.0, 1e-9);
  EXPECT_NEAR(b3 / b2, 5.0, 1e-9);
  // Enormous t overflows to +inf instead of garbage.
  EXPECT_TRUE(std::isinf(theory::coupling_bound(10000, 5, 0.05, 0.6, 1e6)));
}

TEST(theory, popularity_floor_and_epoch) {
  const double zeta = theory::popularity_floor(10, 0.05, 0.6);
  EXPECT_NEAR(zeta, 0.05 * 0.4 / 40.0, 1e-12);
  const double d = theory::delta(0.6);
  EXPECT_NEAR(theory::epoch_length(10, 0.05, 0.6), std::log(1.0 / zeta) / (d * d), 1e-12);
  EXPECT_NEAR(theory::nonuniform_min_horizon(0.01, 0.6), std::log(100.0) / (d * d),
              1e-12);
  EXPECT_THROW((void)theory::nonuniform_min_horizon(0.0, 0.6), std::invalid_argument);
  EXPECT_THROW((void)theory::nonuniform_min_horizon(1.5, 0.6), std::invalid_argument);
}

TEST(theory, horizon_window) {
  dynamics_params p = theorem_params(10, 0.6);
  const double t_min = theory::min_horizon(10, 0.6);
  EXPECT_FALSE(theory::horizon_in_window(p, 1e4, t_min * 0.5));
  EXPECT_TRUE(theory::horizon_in_window(p, 1e4, t_min * 2.0));
  // N^10 cap is astronomically large for reasonable N (1e60-ish at N=1e6),
  // and saturates to +inf once the power overflows the double range.
  EXPECT_GT(theory::max_horizon(10, 0.6, 1e6), 1e55);
  EXPECT_TRUE(std::isinf(theory::max_horizon(10, 0.6, 1e80)));
}

TEST(theory, theorem44_condition_is_monotone_in_population) {
  const dynamics_params p = theorem_params(2, 0.73);
  // The paper's N condition is wildly conservative: even when it fails for
  // small N it must hold for astronomically large N.
  EXPECT_FALSE(theory::theorem44_population_condition(p, 100.0));
  EXPECT_TRUE(theory::theorem44_population_condition(p, 1e200));
}

}  // namespace
}  // namespace sgl::core
