#include "core/theory.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace sgl::core::theory {
namespace {

void check_beta(double beta) {
  if (!(beta > 0.0 && beta < 1.0)) {
    throw std::invalid_argument{"theory: beta must be in (0,1)"};
  }
}

void check_population(double num_agents) {
  if (!(num_agents > 1.0)) throw std::invalid_argument{"theory: need N > 1"};
}

}  // namespace

double delta(double beta) {
  check_beta(beta);
  return std::log(beta / (1.0 - beta));
}

double beta_cap() noexcept { return std::numbers::e / (std::numbers::e + 1.0); }

double mu_cap(double beta) {
  const double d = delta(beta);
  return d * d / 6.0;
}

double min_horizon(std::size_t num_options, double beta) {
  const double d = delta(beta);
  if (num_options < 2) return 1.0;
  return std::log(static_cast<double>(num_options)) / (d * d);
}

double infinite_regret_bound(double beta) { return 3.0 * delta(beta); }

double finite_regret_bound(double beta) { return 6.0 * delta(beta); }

double best_mass_lower_bound(double beta, double gap) {
  if (!(gap > 0.0)) throw std::invalid_argument{"best_mass_lower_bound: need gap > 0"};
  return std::max(0.0, 1.0 - 3.0 * delta(beta) / gap);
}

double delta_prime(std::size_t num_options, double mu, double num_agents) {
  check_population(num_agents);
  if (!(mu > 0.0)) throw std::invalid_argument{"delta_prime: need mu > 0"};
  return std::sqrt(30.0 * static_cast<double>(num_options) * std::log(num_agents) /
                   (mu * num_agents));
}

double delta_double_prime(std::size_t num_options, double mu, double beta,
                          double num_agents) {
  check_population(num_agents);
  check_beta(beta);
  if (!(mu > 0.0)) throw std::invalid_argument{"delta_double_prime: need mu > 0"};
  return std::sqrt(60.0 * static_cast<double>(num_options) * std::log(num_agents) /
                   ((1.0 - beta) * mu * num_agents));
}

double coupling_bound(std::uint64_t t, std::size_t num_options, double mu, double beta,
                      double num_agents) {
  const double ddp = delta_double_prime(num_options, mu, beta, num_agents);
  // 5^t in log space to dodge overflow for large t.
  const double log_bound = static_cast<double>(t) * std::log(5.0) + std::log(ddp);
  if (log_bound > 700.0) return std::numeric_limits<double>::infinity();
  return std::exp(log_bound);
}

double popularity_floor(std::size_t num_options, double mu, double beta) {
  check_beta(beta);
  return mu * (1.0 - beta) / (4.0 * static_cast<double>(num_options));
}

double epoch_length(std::size_t num_options, double mu, double beta) {
  const double zeta = popularity_floor(num_options, mu, beta);
  return nonuniform_min_horizon(zeta, beta);
}

double nonuniform_min_horizon(double zeta, double beta) {
  if (!(zeta > 0.0 && zeta <= 1.0)) {
    throw std::invalid_argument{"nonuniform_min_horizon: zeta must be in (0,1]"};
  }
  const double d = delta(beta);
  return std::log(1.0 / zeta) / (d * d);
}

double max_horizon(std::size_t num_options, double beta, double num_agents) {
  check_population(num_agents);
  const double d = delta(beta);
  const double log_cap = 10.0 * std::log(num_agents) -
                         std::log(static_cast<double>(num_options) * d);
  if (log_cap > 700.0) return std::numeric_limits<double>::infinity();
  return std::exp(log_cap);
}

bool horizon_in_window(const dynamics_params& params, double num_agents, double horizon) {
  const double lo = min_horizon(params.num_options, params.beta);
  const double hi = max_horizon(params.num_options, params.beta, num_agents);
  return horizon >= lo && horizon <= hi;
}

bool theorem44_population_condition(const dynamics_params& params, double num_agents) {
  check_population(num_agents);
  const double m = static_cast<double>(params.num_options);
  const double beta = params.beta;
  const double mu = params.mu;
  const double d = delta(beta);

  const double c = 240.0 * m / ((1.0 - beta) * mu);

  // Condition 1.  The paper prints N/lnN >= c (4m/(μ(1−β)))^{2ln5/δ²} / δ″²,
  // but δ″² is itself Θ(lnN/N), which makes the inequality unsatisfiable for
  // every N — an evident typo for δ² (it is exactly the condition that makes
  // the epoch-coupling slack 5^T δ″ at T = ln(1/ζ)/δ² at most δ, cf. the
  // derivation around eq. (4)).  We implement the intended condition:
  //   N / ln N >= c * (4m/(mu(1-beta)))^{2 ln5 / d^2} / d^2,
  // compared in log space.  See DESIGN.md (errata).
  const double lhs1 = std::log(num_agents) - std::log(std::log(num_agents));
  const double rhs1 = std::log(c) +
                      (2.0 * std::log(5.0) / (d * d)) *
                          std::log(4.0 * m / (mu * (1.0 - beta))) -
                      2.0 * std::log(d);
  // Condition 2: N^10 >= 24 m ln m / (mu (1-beta) d^3).
  const double ln_m = std::log(std::max(m, 2.0));
  const double lhs2 = 10.0 * std::log(num_agents);
  const double rhs2 = std::log(24.0 * m * ln_m / (mu * (1.0 - beta) * d * d * d));

  return lhs1 >= rhs1 && lhs2 >= rhs2;
}

}  // namespace sgl::core::theory
