#pragma once

/// \file finite_dynamics.h
/// The agent-based finite-population dynamics — the paper's actual object
/// of study (§2.1) — for the populations whose agents are not
/// exchangeable.  Every individual is simulated explicitly, so the engine
/// supports the full generality of the model:
///
///   * heterogeneous adoption functions f_i = (α_i, β_i)  (§2.1 keeps them
///     identical "for simplicity in the exposition ... not essential"; a
///     fully mixed mixture of a few rule groups also runs exactly, in
///     O(G·m) a step, on aggregate_dynamics);
///   * sampling restricted to a social network's neighbours (§6, open
///     problem 1) instead of the whole group;
///   * individuals sitting out (adopting nothing) for a step.
///
/// A homogeneous, fully mixed population is exactly the count process of
/// Propositions 4.1/4.2 and runs on aggregate_dynamics, so this engine
/// needs a topology, per-agent rules, or both.  Per-agent rules without a
/// topology take the O(N) per-agent step: the vectorized mixed kernel for
/// m ≤ 64 (stream derivation v3, core/step_kernel.h), a scalar v2 loop
/// above that.  Rules and topology are constructor arguments, so an
/// engine's step path is fixed when it is built.
///
/// Network mode has its own path: an **incremental committed-neighbour
/// view** — per-vertex, per-option counts of committed neighbours, updated
/// by delta only for agents whose choice changed between steps — makes
/// stage 1 an *exact* O(active options) draw from the neighbour-adopter
/// distribution.  Agents step in a fixed decomposition of 8192-agent
/// shards.  The two-option sparse step runs the net2 kernel (v3,
/// counter-addressed per agent); the m > 2 sparse step and the dense
/// rejection sampler draw from per-(step, shard) streams (DESIGN.md,
/// "stream derivation v2 — network mode").  Each path has exactly one sampler, whatever the host ISA.
///
/// Semantics pinned down beyond the paper's text (documented in DESIGN.md):
///   * If nobody adopted at step t, popularity Q^t is *uniform* (matching
///     the Q⁰ convention); such steps are counted in empty_steps().
///   * In network mode, an individual copies a uniform *committed*
///     neighbour — sampled exactly from the committed-neighbour view (the
///     network analogue of popularity being the distribution among
///     adopters); if it has no committed neighbour (isolated vertex, or
///     the whole neighbourhood sat out), it falls back to a uniform random
///     option, mirroring the uniform empty-population rule.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dynamics_engine.h"
#include "core/params.h"
#include "graph/graph.h"
#include "support/distributions.h"
#include "support/rng.h"

namespace sgl::core {

class finite_dynamics : public dynamics_engine {
 public:
  /// A population of `num_agents`, fully mixed (nullptr) or sampling only
  /// the neighbours of `topology` (shared, so generated graphs stay alive
  /// across every engine a factory builds), under per-agent `rules` or,
  /// when empty, the homogeneous rule of `params`; both are fixed for the
  /// engine's life.  Throws std::invalid_argument on invalid parameters,
  /// num_agents == 0, a graph or non-empty `rules` not sized num_agents,
  /// a rule outside 0 ≤ α_i ≤ β_i ≤ 1, or neither a topology nor rules
  /// (that population is aggregate_dynamics').
  finite_dynamics(const dynamics_params& params, std::size_t num_agents,
                  std::shared_ptr<const graph::graph> topology = nullptr,
                  std::vector<adoption_rule> rules = {});

  /// No-op kept so perfbench builds (perfbench only; drop with the next
  /// [benchmark] PR).  The step is serial.
  void set_threads(unsigned /*threads*/) noexcept {}

  /// Everybody back to the initial state (no choices, uniform popularity,
  /// an all-zero committed-neighbour view); rules and topology survive, so
  /// the harness reuses one instance across replications instead of
  /// reallocating the agent/view buffers at large N.
  void reset() final;

  /// Advances one step given the realized signals R^{t+1} (size m).
  void step(std::span<const std::uint8_t> rewards, rng& gen) final;

  /// Q^t: popularity over options (uniform before the first step and after
  /// empty steps).
  [[nodiscard]] std::span<const double> popularity() const noexcept final {
    return popularity_;
  }

  /// Current choice of each agent; -1 means sitting out.
  [[nodiscard]] std::span<const std::int32_t> choices() const noexcept {
    return choices_;
  }

  /// D^t_j: number of agents committed to option j after the last step.
  [[nodiscard]] std::span<const std::uint64_t> adopter_counts() const noexcept final {
    return adopter_counts_;
  }

  /// S^t_j: number of agents who *considered* option j in stage 1 of the
  /// last step (Proposition 4.1's quantity).
  [[nodiscard]] std::span<const std::uint64_t> stage_counts() const noexcept {
    return stage_counts_;
  }

  /// Committed neighbours of vertex v on option j, read from the
  /// incremental view (either layout).  Throws std::out_of_range when the
  /// view has no such entry: v >= num_agents(), j >= m, or no view at all
  /// (fully mixed or dense network mode).
  [[nodiscard]] std::uint32_t committed_neighbors(std::size_t v, std::size_t j) const;

  /// Total number of committed agents after the last step.
  [[nodiscard]] std::uint64_t adopters() const noexcept { return adopters_; }

  /// Steps on which nobody adopted.
  [[nodiscard]] std::uint64_t empty_steps() const noexcept final { return empty_steps_; }

  [[nodiscard]] std::uint64_t steps() const noexcept final { return steps_; }
  [[nodiscard]] std::size_t num_agents() const noexcept { return choices_.size(); }
  [[nodiscard]] const dynamics_params& params() const noexcept { return params_; }

 private:
  /// Agents per shard of the fixed network-mode decomposition.  A function
  /// of N only, so shard streams are stable.
  static constexpr std::size_t shard_size = 8192;

  /// Average-degree cutoff between the two exact network samplers: at or
  /// below it, the incremental committed-neighbour view (delta maintenance
  /// costs O(churn · degree) per agent, a win for sparse graphs); above
  /// it, rejection sampling with an exact scan fallback (zero maintained
  /// state — on K_N or two-cliques a per-vertex view would cost O(N) per
  /// changed agent).  Both samplers realize the same law.
  static constexpr double dense_degree_threshold = 24.0;

  /// Attempts before the dense-mode sampler stops rejecting and scans the
  /// neighbourhood exactly; the scan keeps the law exact (no residual
  /// uniform fallback while committed neighbours exist).
  static constexpr int rejection_cap = 64;

  /// O(N) per-agent loop (derivation v2): heterogeneous rules, fully mixed
  /// (no topology), m > 64 — beyond the mixed kernel's CDF ladder.
  void step_per_agent(std::span<const std::uint8_t> rewards, rng& gen);

  /// The same step through the vectorized mixed kernel (derivation v3),
  /// the only sampler for heterogeneous fully mixed runs with m <= 64.
  void step_mixed_vec(std::span<const std::uint8_t> rewards, rng& gen);

  /// Sharded network-mode step: exact committed-neighbour draws from the
  /// incremental view (the net2 kernel for m == 2, per-(step, shard) RNG
  /// streams otherwise), delta view update.
  void step_network(std::span<const std::uint8_t> rewards, rng& gen);

  /// The view-delta walk: applies shard s's changed-list entries to the
  /// neighbours' view rows, reading the CSR arrays directly.
  void apply_view_deltas(std::size_t s);

  /// Dense-mode stage-1 sampler: the choice of a uniform committed
  /// neighbour of i, or -1 when there is none.
  [[nodiscard]] std::int32_t sample_committed_neighbor(std::size_t i,
                                                       rng& shard_gen) const;

  /// Popularity update + empty-step bookkeeping shared by all paths.
  void finish_step();

  dynamics_params params_;
  std::shared_ptr<const graph::graph> topology_;
  std::vector<adoption_rule> rules_;  // empty = homogeneous params_ rule
  std::vector<std::int32_t> choices_;
  std::vector<std::int32_t> previous_choices_;  // network mode reads these
  std::vector<double> popularity_;
  std::vector<std::uint64_t> adopter_counts_;
  std::vector<std::uint64_t> stage_counts_;
  // Network mode: neighbor_view_[v*m + j] = committed neighbours of v on
  // option j (m == 2: one word per vertex, option 1 in the high half),
  // always consistent with choices_; maintained by apply_view_deltas.
  // Empty when the graph is above dense_degree_threshold (rejection mode).
  std::vector<std::uint32_t> neighbor_view_;
  std::vector<std::uint64_t> shard_counts_;  // per-shard stage/adopter scratch
  // Per-shard packed (i, was, now) entries of the agents whose choice
  // changed: the sampling pass writes them, the view-delta walk reads them.
  std::vector<std::uint64_t> changed_;
  std::vector<std::uint32_t> changed_len_;   // entries used per shard
  std::vector<double> adopt_below_explore_;  // fused stage-2 threshold, μ-branch
  std::vector<double> adopt_below_copy_;     // fused stage-2 threshold, copy branch
  // SoA u64 adoption thresholds (prob_to_u64 of each rule), built once in
  // the constructor; the v3 kernels blend contiguous loads from these
  // instead of gathering adoption_rule structs.
  std::vector<std::uint64_t> alpha_thr_;
  std::vector<std::uint64_t> beta_thr_;
  std::vector<std::uint64_t> pop_cdf_;  // v3 mixed kernel: popularity CDF rungs
  std::vector<std::uint32_t> considered_scratch_;  // v3 mixed kernel stage-1 out
  discrete_sampler by_popularity_;  // per-agent path: rebuilt per step, no alloc
  std::uint64_t adopters_ = 0;
  std::uint64_t empty_steps_ = 0;
  std::uint64_t steps_ = 0;
  bool network_dense_ = false;  // topology above the degree threshold
};

}  // namespace sgl::core
