#pragma once

/// \file probe.h
/// Composable measurement probes for the Monte-Carlo runner.
///
/// The paper's §2.2 measures (regret, best-option mass) are one reduction
/// among many, not a result shape hard-coded into the runner.  A probe
/// decouples "what the run computes" from "how the run is driven": the
/// runner advances each replication through the horizon and shows every
/// step to every installed probe; the probe accumulates whatever it wants,
/// finalizes once per replication, and merges across replications
/// deterministically.
///
/// Contract (normative — see DESIGN.md "Probe contract"):
///   * probes never consume the process or reward RNG streams, so adding or
///     removing probes cannot change a trajectory;
///   * clone() produces an empty accumulator of the same configuration, one
///     per parallel shard;
///   * merge(other) folds a clone produced by the same prototype into this
///     one; the runner merges shards in fixed shard order, so results are
///     bit-identical for every thread count;
///   * report() is the machine-readable result: named scalars (optionally
///     with a 95% CI half-width) and named series.
///
/// Built-in probes:
///   regret            — the §2.2 scalar estimates (regret, average reward,
///                       best mass, final best mass, empty-step fraction).
///   trajectory        — per-step running-regret / best-mass / min-popularity
///                       curves.
///   hitting_time(eps) — consensus: first t with Q^t_{best(t)} >= 1 - eps.
///   popularity_floor(floor)
///                     — min_{t,j} Q^t_j per replication and, when a floor is
///                       given, the per-step violation rate (§4.3.2 audit).
///   final_histogram   — per-option mean of the final popularity Q^T.
///   recovery(eps)     — steps from each best-option switch until
///                       Q^t_{best(t)} >= 1 - eps again (§6 "stocks").
///
/// Analysis probes (each applies to one engine and reports zero
/// replications for everything else; none takes an argument):
///   concentration     — exact aggregate engine: the per-step stage and
///                       adopter counts against Props 4.1–4.3's radii.
///   coupling          — exact aggregate engine: Lemma 4.5's coupling with
///                       a shadow infinite-population run on the same
///                       rewards, and the 1/√N sampling noise it isolates.
///   proof_audit       — infinite engine from the uniform start, inside the
///                       theorem regime: the worst slack of §5's pathwise
///                       potential and regret inequalities.
///
/// Protocol probes (meaningful for engines implementing
/// core::net_instrumented — the netsim-backed gossip engine; they report
/// zero replications for everything else):
///   message_cost      — messages / bytes / timers per round, drop rate.
///   commit_latency    — mean rounds an uncommitted spell lasts before the
///                       node commits, and commit events per round.
///   adoption          — committed and alive fractions (mean over rounds
///                       and final) — the churn view of convergence.
///   partition_divergence(eps)
///                     — per-side disagreement while a scheduled partition
///                       is active, and steps from the heal until the sides
///                       agree to within eps again (re-convergence).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamics_engine.h"
#include "core/infinite_dynamics.h"
#include "core/net_metrics.h"
#include "core/proof_audit.h"
#include "env/reward_model.h"
#include "support/stats.h"

namespace sgl::core {

/// One named number in a probe report; `half_width` is a 95% CI when
/// `has_ci` is set.
struct probe_scalar {
  std::string key;
  double value = 0.0;
  double half_width = 0.0;
  bool has_ci = false;
};

/// One named per-index series in a probe report.
struct probe_series {
  std::string key;
  std::vector<double> values;
};

/// The machine-readable result of one probe after all merges.
struct probe_report {
  std::string probe;
  std::vector<probe_scalar> scalars;
  std::vector<probe_series> series;

  /// The scalar with the given key; nullptr when absent.
  [[nodiscard]] const probe_scalar* find_scalar(std::string_view key) const noexcept;
  /// The series with the given key; nullptr when absent.
  [[nodiscard]] const probe_series* find_series(std::string_view key) const noexcept;
};

/// What a probe sees each step.  All spans borrow the runner's buffers and
/// are only valid during the on_step call.
struct probe_step_view {
  std::uint64_t t = 0;                        ///< 1-based step index
  std::uint64_t horizon = 0;                  ///< T of this run
  std::span<const double> popularity_before;  ///< Q^{t-1}
  std::span<const std::uint8_t> rewards;      ///< R^t
  const dynamics_engine& engine;              ///< post-step state (Q^t, ...)
  const env::reward_model& environment;
};

class probe {
 public:
  virtual ~probe() = default;

  /// Stable name used in reports and by the probe spec grammar.
  [[nodiscard]] virtual std::string name() const = 0;

  /// An empty accumulator with this probe's configuration (one per shard).
  [[nodiscard]] virtual std::unique_ptr<probe> clone() const = 0;

  /// Called before the first step of every replication.
  virtual void begin_replication(std::uint64_t horizon) = 0;

  /// Called after every engine step.
  virtual void on_step(const probe_step_view& step) = 0;

  /// Called after the last step of a replication, with the engine in its
  /// final state.
  virtual void end_replication(const dynamics_engine& engine,
                               const env::reward_model& environment,
                               std::uint64_t horizon) = 0;

  /// Folds a sibling clone into this accumulator.  The runner calls this in
  /// fixed shard order; implementations must be deterministic functions of
  /// (this, other) so results are thread-count-independent.
  virtual void merge(const probe& other) = 0;

  [[nodiscard]] virtual probe_report report() const = 0;
};

using probe_list = std::vector<std::unique_ptr<probe>>;

// --- built-in probes --------------------------------------------------------

/// Cached (best option, best mean) of a *stationary* environment, filled on
/// the first step of each replication and reused for the rest of it.
/// best_option/best_mean walk all m options through virtual mean() calls —
/// per step that is pure overhead once the environment admits a constant
/// answer.  The cached values are the exact doubles the per-step lookup
/// would produce, so probe accumulations stay bit-identical;
/// non-stationary environments take the full lookup every step, as before.
struct best_option_cache {
  std::size_t best = 0;
  double best_mean = 0.0;
  bool cached = false;

  void refresh(const probe_step_view& step);
};

/// The §2.2 scalar reduction.  Its accumulation order is pinned bit for bit
/// by the probe_golden tests (tests/probe_test.cpp).
class regret_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "regret"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

  [[nodiscard]] const running_stats& regret_stats() const noexcept { return regret_; }
  [[nodiscard]] const running_stats& average_reward_stats() const noexcept {
    return average_reward_;
  }
  [[nodiscard]] const running_stats& best_mass_stats() const noexcept { return best_mass_; }
  [[nodiscard]] const running_stats& final_best_mass_stats() const noexcept {
    return final_best_mass_;
  }
  [[nodiscard]] const running_stats& empty_fraction_stats() const noexcept {
    return empty_fraction_;
  }

 private:
  running_stats regret_;
  running_stats average_reward_;
  running_stats best_mass_;
  running_stats final_best_mass_;
  running_stats empty_fraction_;
  best_option_cache best_cache_;
  double reward_sum_ = 0.0;
  double best_mean_sum_ = 0.0;
  double best_mass_sum_ = 0.0;
};

/// The per-step curves (running regret, best mass, min popularity), pinned
/// bit for bit by the probe_golden tests (tests/probe_test.cpp).
class trajectory_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "trajectory"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

  /// Engaged once the first replication began; length = horizon.
  [[nodiscard]] const series_stats& running_regret() const { return running_regret_.value(); }
  [[nodiscard]] const series_stats& best_mass() const { return best_mass_.value(); }
  [[nodiscard]] const series_stats& min_popularity() const { return min_popularity_.value(); }

 private:
  void ensure_length(std::size_t horizon);

  std::optional<series_stats> running_regret_;
  std::optional<series_stats> best_mass_;
  std::optional<series_stats> min_popularity_;
  std::vector<double> regret_curve_;
  std::vector<double> best_curve_;
  std::vector<double> min_pop_curve_;
  best_option_cache best_cache_;
  double reward_sum_ = 0.0;
  double best_mean_sum_ = 0.0;
};

/// Consensus / hitting time: the first step t at which the post-step mass of
/// the current best option reaches 1 - eps.  Something the fixed reduction
/// could not express (cf. Su–Zubeldia–Lynch's convergence-time metrics).
class hitting_time_probe final : public probe {
 public:
  explicit hitting_time_probe(double eps);
  [[nodiscard]] std::string name() const override { return "hitting_time"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

  [[nodiscard]] const running_stats& hit_fraction_stats() const noexcept {
    return hit_fraction_;
  }
  [[nodiscard]] const running_stats& hitting_time_stats() const noexcept { return time_; }

 private:
  double threshold_;  // 1 - eps
  running_stats hit_fraction_;
  running_stats time_;
  best_option_cache best_cache_;
  std::uint64_t hit_at_ = 0;  // 0 = not yet hit this replication
};

/// The §4.3.2 popularity-floor audit: the worst min_j Q^t_j per replication
/// and, when `floor` > 0, the per-step rate at which min_j Q^t_j < floor
/// (the claim is that with zeta = mu(1-beta)/(4m) the rate is ~0).
class popularity_floor_probe final : public probe {
 public:
  explicit popularity_floor_probe(double floor);
  [[nodiscard]] std::string name() const override { return "popularity_floor"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

  [[nodiscard]] const running_stats& min_popularity_stats() const noexcept { return min_; }
  [[nodiscard]] const running_stats& violation_rate_stats() const noexcept {
    return violation_rate_;
  }

 private:
  double floor_;
  running_stats min_;             // per-replication worst min_j Q^t_j
  running_stats violation_rate_;  // per-replication fraction of violating steps
  double worst_ = 1.0;
  std::uint64_t violations_ = 0;
};

/// Per-option mean of the final popularity Q^T across replications.
class final_histogram_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "final_histogram"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

 private:
  std::vector<running_stats> per_option_;
};

/// Recovery time in changing environments (§6; cf. Frongillo–Schoenebeck–
/// Tamuz): after every step where best_option(t) changes, the number of
/// steps until the post-step mass of the new best option reaches 1 - eps.
/// Switches that never recover before the horizon (or before the next
/// switch) are counted separately.
class recovery_probe final : public probe {
 public:
  explicit recovery_probe(double eps);
  [[nodiscard]] std::string name() const override { return "recovery"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

  [[nodiscard]] const running_stats& recovery_time_stats() const noexcept { return times_; }
  [[nodiscard]] std::uint64_t switches() const noexcept { return switches_; }
  [[nodiscard]] std::uint64_t unrecovered() const noexcept { return unrecovered_; }

 private:
  double threshold_;  // 1 - eps
  running_stats times_;
  best_option_cache best_cache_;
  std::uint64_t switches_ = 0;
  std::uint64_t unrecovered_ = 0;
  std::size_t prev_best_ = static_cast<std::size_t>(-1);
  std::uint64_t pending_since_ = 0;  // 0 = no outstanding switch
};

/// Wire-cost accounting for net-instrumented engines: per-round messages,
/// bytes, timers (normalized by the horizon) and the end-to-end drop rate.
/// The "appropriate for low-power devices" reading of §6 needs exactly
/// this: what does the distributed implementation cost on the air?
class message_cost_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "message_cost"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

  [[nodiscard]] const running_stats& messages_per_round_stats() const noexcept {
    return messages_per_round_;
  }
  [[nodiscard]] const running_stats& drop_rate_stats() const noexcept { return drop_rate_; }

 private:
  running_stats messages_per_round_;
  running_stats messages_per_node_round_;
  running_stats bytes_per_round_;
  running_stats timers_per_round_;
  running_stats drop_rate_;
};

/// Commit latency for net-instrumented engines: the mean length, in
/// protocol rounds, of an uncommitted spell before the node commits, plus
/// commit events per round.  The protocol analogue of hitting-time-style
/// convergence metrics (cf. Su–Zubeldia–Lynch).
class commit_latency_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "commit_latency"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

 private:
  running_stats latency_;  // per-replication mean latency (rounds); only
                           // replications with >= 1 commit event contribute
  running_stats commits_per_round_;
};

/// Adoption under churn for net-instrumented engines: the committed
/// fraction (of alive nodes) averaged over the horizon and at the end, and
/// the final alive fraction.
class adoption_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "adoption"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

  [[nodiscard]] const running_stats& committed_fraction_stats() const noexcept {
    return committed_fraction_;
  }
  [[nodiscard]] const running_stats& final_alive_fraction_stats() const noexcept {
    return final_alive_fraction_;
  }

 private:
  running_stats committed_fraction_;        // mean over the horizon, per rep
  running_stats final_committed_fraction_;
  running_stats final_alive_fraction_;
  double committed_fraction_sum_ = 0.0;
  std::uint64_t observed_steps_ = 0;
};

/// Disagreement across a scheduled network cut, for partition-instrumented
/// engines (the protocol engine under a `faults.*` partition).  While the
/// cut is active it measures the per-side disagreement
/// div = ½ · Σ_j |p^A_j − p^B_j| over the two sides' committed-option
/// histograms (total variation distance); after the heal it measures the
/// number of steps until div first drops to `eps` (re-convergence — the §6
/// robustness question: does the dynamics re-mix after the network does?).
/// Steps where either side has no committed nodes yet are not measurable
/// and do not contribute.  Engines without a partition view, or runs whose
/// schedule never partitions, report zero replications.
class partition_divergence_probe final : public probe {
 public:
  explicit partition_divergence_probe(double eps);
  [[nodiscard]] std::string name() const override { return "partition_divergence"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

 private:
  double eps_;
  running_stats partition_steps_;  // steps spent partitioned, per rep
  running_stats divergence_;       // mean measurable in-cut divergence, per rep
  running_stats divergence_max_;   // worst in-cut divergence, per rep
  running_stats reconvergence_;    // steps from heal until div <= eps
  std::uint64_t unrecovered_ = 0;  // healed reps that never re-converged
  // per-replication accumulators
  std::uint64_t steps_partitioned_ = 0;
  double div_sum_ = 0.0;
  std::uint64_t div_steps_ = 0;
  double div_max_ = 0.0;
  bool was_partitioned_ = false;
  std::uint64_t heal_step_ = 0;       // first post-heal step (0 = none yet)
  std::uint64_t reconverge_at_ = 0;   // step where div first <= eps post-heal
  bool reconverged_ = false;
};

/// Propositions 4.1–4.3 (per-stage concentration), on the exact aggregate
/// engine with exactly one rule group (α and β are that group's rule; an
/// `engine = "grouped"` spec with one group qualifies, a mixture reports
/// zero replications).  Conditioned on Q^{t−1}, each step's counts should satisfy
///   |S_j / E[S_j] − 1|         <= 2δ′   (Prop 4.1),
///   |D_j / (S_j g_j) − 1|      <= 2δ″   (Prop 4.2),
///   |D_j / (E[S_j] g_j) − 1|   <= 6δ″   (Prop 4.3),
/// with E[S_j | Q^{t−1}] = ((1−μ)Q^{t−1}_j + μ/m)·N and g_j = β^{R_j}α^{1−R_j}.
/// Each deviation is the worst over options and steps of a replication,
/// divided by its radius, so the claim reads `<= 1`; `stage1`, `stage2` and
/// `combined` are the worst over replications.  Options with g_j = 0 (or
/// S_j = 0, for stage 2) have no ratio and are skipped.  Outside μ > 0,
/// 0 < β < 1, N >= 2 the radii are undefined and a replication is not
/// counted.
class concentration_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "concentration"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

 private:
  running_stats stage1_;  // per-replication worst, in units of 2δ′
  running_stats stage2_;  // ... of 2δ″
  running_stats combined_;  // ... of 6δ″
  // per-replication accumulators
  bool applies_ = false;
  double radius1_ = 0.0;
  double radius2_ = 0.0;
  double radius3_ = 0.0;
  double worst1_ = 0.0;
  double worst2_ = 0.0;
  double worst3_ = 0.0;
};

/// Lemma 4.5's coupling, on the exact aggregate engine with exactly one
/// rule group (as concentration_probe): a shadow infinite_dynamics with
/// that group's (α, β) starts from step 1's Q^0 and steps on every step's
/// rewards, so P^t and Q^t share the reward realization.  Reported:
///   deviation / deviation_max — per replication the worst ratio deviation
///       max_j max(P_j/Q_j, Q_j/P_j) − 1 over its steps, capped at 10 (a
///       zero popularity makes the ratio infinite); `capped_steps` counts
///       the steps that hit the cap;
///   within_bound — the fraction of steps whose (uncapped) deviation is
///       within the lemma's δ_t = 5^t δ″ (+inf outside μ > 0, 0 < β < 1,
///       N >= 2);
///   sampling_sd_sqrt_n — sd(Q^t_best − P^t_best)·√N over every step of
///       every replication: the shared rewards cancel, leaving the sampling
///       noise, whose 1/√N scale is what δ″ bounds.
class coupling_probe final : public probe {
 public:
  static constexpr double k_deviation_cap = 10.0;

  [[nodiscard]] std::string name() const override { return "coupling"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

 private:
  running_stats deviation_;     // per-replication worst capped deviation
  running_stats within_bound_;  // per-replication fraction of steps
  running_stats sampling_;      // Q_best − P_best, every step
  std::uint64_t capped_steps_ = 0;
  double num_agents_ = 0.0;
  // per-replication accumulators
  std::unique_ptr<infinite_dynamics> shadow_;
  best_option_cache best_cache_;
  double worst_ = 0.0;
  std::uint64_t within_ = 0;
  std::uint64_t steps_ = 0;
};

/// §5's proof of Theorem 4.3, replayed pathwise by core::proof_auditor on
/// the infinite engine: `min_slack` is the worst slack of the potential
/// bounds and the combined regret inequality over every step of every
/// replication (>= 0 means each inequality held on every path).  Applies
/// only from the uniform start inside the theorem regime
/// (dynamics_params::satisfies_theorem_conditions).
class proof_audit_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "proof_audit"; }
  [[nodiscard]] std::unique_ptr<probe> clone() const override;
  void begin_replication(std::uint64_t horizon) override;
  void on_step(const probe_step_view& step) override;
  void end_replication(const dynamics_engine& engine,
                       const env::reward_model& environment,
                       std::uint64_t horizon) override;
  void merge(const probe& other) override;
  [[nodiscard]] probe_report report() const override;

 private:
  running_stats worst_slack_;  // per-replication worst slack
  std::unique_ptr<proof_auditor> auditor_;  // this replication's, when it applies
};

// --- probe spec grammar -----------------------------------------------------

/// Builds a probe from a spec string: `name` or `name(key=value, ...)`.
///   regret | trajectory | final_histogram
///   hitting_time(eps=0.1) | recovery(eps=0.5) | popularity_floor(floor=0)
///   concentration | coupling | proof_audit
///   message_cost | commit_latency | adoption | partition_divergence(eps=0.1)
/// Throws std::invalid_argument on unknown names (listing the known ones,
/// suggesting the nearest), unknown argument keys, or malformed values.
[[nodiscard]] std::unique_ptr<probe> make_probe(std::string_view spec);

/// Splits a comma-separated list of probe specs into its spec strings
/// (commas inside parentheses belong to the spec); blank items are dropped.
[[nodiscard]] std::vector<std::string> split_probe_specs(std::string_view text);

/// Builds one probe per spec string.
[[nodiscard]] probe_list make_probes(std::span<const std::string> specs);

/// report() of every probe in the list, in order.
[[nodiscard]] std::vector<probe_report> collect_reports(const probe_list& probes);

}  // namespace sgl::core
