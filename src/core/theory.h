#pragma once

/// \file theory.h
/// Every quantitative constant the paper's analysis defines, in one place,
/// so benches can print measured-vs-bound columns and property tests can
/// assert the theorem inequalities.  Section references follow the paper.

#include <cstddef>
#include <cstdint>

#include "core/params.h"

namespace sgl::core::theory {

/// δ = ln(β/(1−β))  (§2.2).  Requires 0 < β < 1.
[[nodiscard]] double delta(double beta);

/// The largest β admitted by the theorems: e/(e+1) ≈ 0.7311.
[[nodiscard]] double beta_cap() noexcept;

/// The largest exploration weight admitted: μ ≤ δ²/6 (Thm 4.3).
[[nodiscard]] double mu_cap(double beta);

/// Minimum horizon of Theorem 4.3: T ≥ ln m / δ².
[[nodiscard]] double min_horizon(std::size_t num_options, double beta);

/// Theorem 4.3 regret bound for the infinite dynamics: 3δ.
[[nodiscard]] double infinite_regret_bound(double beta);

/// Theorem 4.4 regret bound for the finite dynamics: 6δ.
[[nodiscard]] double finite_regret_bound(double beta);

/// Theorem 4.3, part 2: time-averaged mass on the best option is at least
/// 1 − 3δ/(η₁−η₂) (clamped to ≥ 0 — the bound is vacuous for small gaps).
[[nodiscard]] double best_mass_lower_bound(double beta, double gap);

/// Proposition 4.1's stage-1 concentration radius
/// δ′ = √(30 m ln N / (μ N)).
[[nodiscard]] double delta_prime(std::size_t num_options, double mu, double num_agents);

/// Proposition 4.2's stage-2 concentration radius
/// δ″ = √(60 m ln N / ((1−β) μ N)).
[[nodiscard]] double delta_double_prime(std::size_t num_options, double mu, double beta,
                                        double num_agents);

/// Lemma 4.5's coupling radius after t steps: δ_t = 5^t δ″ (the lemma's
/// guarantee is 1/(1+δ_t) ≤ P^t_j/Q^t_j ≤ 1+δ_t w.h.p.).
[[nodiscard]] double coupling_bound(std::uint64_t t, std::size_t num_options, double mu,
                                    double beta, double num_agents);

/// §4.3.2's popularity floor ζ = μ(1−β)/(4m): w.h.p. every option keeps at
/// least this popularity at every step.
[[nodiscard]] double popularity_floor(std::size_t num_options, double mu, double beta);

/// §4.3.2's epoch length ln(4m/(μ(1−β))) / δ² = ln(1/ζ)/δ².
[[nodiscard]] double epoch_length(std::size_t num_options, double mu, double beta);

/// Theorem 4.6's minimum horizon from a start with min_j P⁰_j ≥ ζ:
/// T ≥ ln(1/ζ)/δ².
[[nodiscard]] double nonuniform_min_horizon(double zeta, double beta);

/// Theorem 4.4's large-T cap: T ≤ N^10 / (m δ).  Returns +inf when the
/// power overflows, which is the practically-always case for N ≥ 10.
[[nodiscard]] double max_horizon(std::size_t num_options, double beta, double num_agents);

/// Convenience: does (params, N, T) sit inside Theorem 4.4's stated window
/// ln m/δ² ≤ T (the N conditions are astronomically conservative; callers
/// check them separately when they care)?
[[nodiscard]] bool horizon_in_window(const dynamics_params& params, double num_agents,
                                     double horizon);

/// The two explicit N conditions of Theorem 4.4 (c = 240m/((1−β)μ)):
/// N/ln N ≥ (c·(4m/(μ(1−β)))^{2·ln5/δ²}) / δ²  and  N¹⁰ ≥ 24 m ln m /(μ(1−β)δ³).
/// NOTE: the paper prints δ″² in the first denominator, but δ″² = Θ(lnN/N)
/// makes that inequality unsatisfiable for every N; the δ² version is the
/// evident intent (it is what bounds the epoch-coupling slack 5^Tδ″ by δ).
/// Evaluated in log-space; returns true when both hold.  These constants
/// are wildly conservative — claims/thm44_finite_regret.scn shows the 6δ
/// bound holding at far smaller N, which is itself a finding worth
/// reporting.
[[nodiscard]] bool theorem44_population_condition(const dynamics_params& params,
                                                  double num_agents);

}  // namespace sgl::core::theory
