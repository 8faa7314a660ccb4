#include "core/probe.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <typeinfo>

#include "core/aggregate_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/net_metrics.h"
#include "core/proof_audit.h"
#include "core/theory.h"
#include "support/json_parse.h"  // parse_json_number
#include "support/stats.h"
#include "support/text.h"  // trim_ascii / closest_name

namespace sgl::core {

const probe_scalar* probe_report::find_scalar(std::string_view key) const noexcept {
  for (const auto& s : scalars) {
    if (s.key == key) return &s;
  }
  return nullptr;
}

const probe_series* probe_report::find_series(std::string_view key) const noexcept {
  for (const auto& s : series) {
    if (s.key == key) return &s;
  }
  return nullptr;
}

namespace {

probe_scalar ci_scalar(std::string key, const running_stats& s) {
  const mean_ci ci = confidence_interval(s);
  return {.key = std::move(key),
          .value = ci.mean,
          .half_width = ci.half_width,
          .has_ci = true,
          .samples = s.count()};
}

probe_scalar plain_scalar(std::string key, double value) {
  return {.key = std::move(key), .value = value};
}

/// One row per probe make_probe knows, in the order the error lists them:
/// the name, its one numeric argument's key and default (an empty key: it
/// takes no arguments), and the factory.
struct probe_entry {
  std::string_view name;
  std::string_view arg_key;
  double arg_default;
  std::unique_ptr<probe> (*make)(const probe_entry& entry, double arg);
};

/// The base of every probe.  It owns the state that outlives a replication
/// — per-replication statistics as running_stats and exact tallies — and so
/// writes name(), clone() and merge() once: clone() rebuilds through the
/// probe's k_probes entry from its stored argument, and merge() folds every
/// statistic and tally in index order.  A probe declares how many of each
/// in its constructor and addresses them by index; trajectory and
/// final_histogram size their statistics on first use (size_stats), and an
/// empty side of a merge takes the other's.  Every other member of a probe
/// is per-replication scratch that merge() never reads.
class folding_probe : public probe {
 public:
  [[nodiscard]] std::string name() const final { return std::string{entry_->name}; }

  [[nodiscard]] std::unique_ptr<probe> clone() const final { return entry_->make(*entry_, arg_); }

  void merge(const probe& other) final {
    if (typeid(other) != typeid(*this)) {
      throw std::invalid_argument{"probe merge: '" + other.name() + "' into '" + name() + "'"};
    }
    const auto& o = static_cast<const folding_probe&>(other);
    if (stats_.empty()) {
      stats_ = o.stats_;
    } else if (!o.stats_.empty()) {
      if (o.stats_.size() != stats_.size()) {
        throw std::invalid_argument{"probe merge: '" + name() + "' statistic count mismatch"};
      }
      for (std::size_t i = 0; i < stats_.size(); ++i) stats_[i].merge(o.stats_[i]);
    }
    for (std::size_t i = 0; i < tallies_.size(); ++i) tallies_[i] += o.tallies_[i];
  }

 protected:
  folding_probe(const probe_entry& entry, double arg, std::size_t stats, std::size_t tallies = 0)
      : entry_{&entry}, arg_{arg}, stats_(stats), tallies_(tallies) {}

  [[nodiscard]] running_stats& stat(std::size_t i) { return stats_[i]; }
  [[nodiscard]] const running_stats& stat(std::size_t i) const { return stats_[i]; }
  [[nodiscard]] std::size_t stat_count() const noexcept { return stats_.size(); }
  /// Starts over with `count` empty statistics unless there are that many.
  void size_stats(std::size_t count) {
    if (stats_.size() != count) stats_.assign(count, running_stats{});
  }
  [[nodiscard]] std::uint64_t& tally(std::size_t i) { return tallies_[i]; }
  [[nodiscard]] std::uint64_t tally(std::size_t i) const { return tallies_[i]; }

 private:
  const probe_entry* entry_;
  double arg_;
  std::vector<running_stats> stats_;
  std::vector<std::uint64_t> tallies_;
};

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

  void refresh(const probe_step_view& step) {
    if (step.t == 1) cached = false;  // new replication: revalidate
    if (cached) return;
    best = step.environment.best_option(step.t);
    best_mean = step.environment.mean(step.t, best);
    cached = step.environment.is_stationary();
  }
};

// --- regret -----------------------------------------------------------------

/// The §2.2 scalar reduction.  Its accumulation order is pinned bit for bit
/// by the probe_golden tests (tests/probe_test.cpp).
class regret_probe final : public folding_probe {
 public:
  regret_probe(const probe_entry& entry, double arg) : folding_probe{entry, arg, k_stats} {}

  void begin_replication(std::uint64_t /*horizon*/) override {
    reward_sum_ = 0.0;
    best_mean_sum_ = 0.0;
    best_mass_sum_ = 0.0;
  }

  void on_step(const probe_step_view& step) override {
    // Group reward of step t uses the pre-step popularity Q^{t-1} (§2.2).
    double group_reward = 0.0;
    for (std::size_t j = 0; j < step.rewards.size(); ++j) {
      group_reward += step.popularity_before[j] * static_cast<double>(step.rewards[j]);
    }
    reward_sum_ += group_reward;
    best_cache_.refresh(step);
    best_mean_sum_ += best_cache_.best_mean;
    best_mass_sum_ += step.popularity_before[best_cache_.best];
  }

  void end_replication(const dynamics_engine& engine, const env::reward_model& environment,
                       std::uint64_t horizon) override {
    const double h = static_cast<double>(horizon);
    stat(k_regret).add((best_mean_sum_ - reward_sum_) / h);
    stat(k_average_reward).add(reward_sum_ / h);
    stat(k_best_mass).add(best_mass_sum_ / h);
    const auto q_final = engine.popularity();
    stat(k_final_best_mass).add(q_final[environment.best_option(horizon)]);
    stat(k_empty_fraction).add(static_cast<double>(engine.empty_steps()) / h);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("regret", stat(k_regret)));
    out.scalars.push_back(ci_scalar("average_reward", stat(k_average_reward)));
    out.scalars.push_back(ci_scalar("best_mass", stat(k_best_mass)));
    out.scalars.push_back(ci_scalar("final_best_mass", stat(k_final_best_mass)));
    out.scalars.push_back(plain_scalar("empty_step_fraction", stat(k_empty_fraction).mean()));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(stat(k_regret).count())));
    return out;
  }

 private:
  enum : std::size_t {
    k_regret,
    k_average_reward,
    k_best_mass,
    k_final_best_mass,
    k_empty_fraction,
    k_stats
  };

  best_option_cache best_cache_;
  double reward_sum_ = 0.0;
  double best_mean_sum_ = 0.0;
  double best_mass_sum_ = 0.0;
};

// --- trajectory -------------------------------------------------------------

/// The per-step curves (running regret, best mass, min popularity), pinned
/// bit for bit by the probe_golden tests (tests/probe_test.cpp).  Curve k's
/// step t is statistic k·horizon + t − 1.
class trajectory_probe final : public folding_probe {
 public:
  trajectory_probe(const probe_entry& entry, double arg) : folding_probe{entry, arg, 0} {}

  void begin_replication(std::uint64_t horizon) override {
    size_stats(k_curves * horizon);
    reward_sum_ = 0.0;
    best_mean_sum_ = 0.0;
    for (std::vector<double>& curve : curves_) {
      curve.clear();
      curve.reserve(horizon);
    }
  }

  void on_step(const probe_step_view& step) override {
    double group_reward = 0.0;
    for (std::size_t j = 0; j < step.rewards.size(); ++j) {
      group_reward += step.popularity_before[j] * static_cast<double>(step.rewards[j]);
    }
    reward_sum_ += group_reward;
    best_cache_.refresh(step);
    const std::size_t best = best_cache_.best;
    best_mean_sum_ += best_cache_.best_mean;

    const double td = static_cast<double>(step.t);
    curves_[0].push_back((best_mean_sum_ - reward_sum_) / td);
    const auto q_now = step.engine.popularity();
    curves_[1].push_back(q_now[best]);
    curves_[2].push_back(*std::min_element(q_now.begin(), q_now.end()));
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t horizon) override {
    for (std::size_t k = 0; k < k_curves; ++k) {
      for (std::size_t i = 0; i < horizon; ++i) stat(k * horizon + i).add(curves_[k][i]);
    }
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    if (stat_count() == 0) return out;
    out.scalars.push_back(plain_scalar("replications", static_cast<double>(stat(0).count())));
    const std::size_t horizon = stat_count() / k_curves;
    for (std::size_t k = 0; k < k_curves; ++k) {
      probe_series means{std::string{k_keys[k]} + "_mean", {}};
      probe_series widths{std::string{k_keys[k]} + "_half_width", {}};
      for (std::size_t i = 0; i < horizon; ++i) {
        const mean_ci ci = confidence_interval(stat(k * horizon + i));
        means.values.push_back(ci.mean);
        widths.values.push_back(ci.half_width);
      }
      out.series.push_back(std::move(means));
      out.series.push_back(std::move(widths));
    }
    return out;
  }

 private:
  static constexpr std::size_t k_curves = 3;
  static constexpr std::array<std::string_view, k_curves> k_keys{
      "running_regret", "best_mass", "min_popularity"};

  std::array<std::vector<double>, k_curves> curves_;  // this replication's
  best_option_cache best_cache_;
  double reward_sum_ = 0.0;
  double best_mean_sum_ = 0.0;
};

// --- hitting_time -----------------------------------------------------------

/// Consensus / hitting time: the first step t at which the post-step mass of
/// the current best option reaches 1 - eps.  Something the fixed reduction
/// could not express (cf. Su–Zubeldia–Lynch's convergence-time metrics).
class hitting_time_probe final : public folding_probe {
 public:
  hitting_time_probe(const probe_entry& entry, double eps)
      : folding_probe{entry, eps, k_stats}, threshold_{1.0 - eps} {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument{"hitting_time: eps must be in (0,1)"};
    }
  }

  void begin_replication(std::uint64_t /*horizon*/) override { hit_at_ = 0; }

  void on_step(const probe_step_view& step) override {
    if (hit_at_ != 0) return;
    best_cache_.refresh(step);
    if (step.engine.popularity()[best_cache_.best] >= threshold_) hit_at_ = step.t;
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    stat(k_hit_fraction).add(hit_at_ != 0 ? 1.0 : 0.0);
    if (hit_at_ != 0) stat(k_time).add(static_cast<double>(hit_at_));
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("threshold", threshold_));
    out.scalars.push_back(ci_scalar("hit_fraction", stat(k_hit_fraction)));
    out.scalars.push_back(ci_scalar("hitting_time", stat(k_time)));
    out.scalars.push_back(plain_scalar("hits", static_cast<double>(stat(k_time).count())));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(stat(k_hit_fraction).count())));
    return out;
  }

 private:
  enum : std::size_t { k_hit_fraction, k_time, k_stats };

  double threshold_;  // 1 - eps
  best_option_cache best_cache_;
  std::uint64_t hit_at_ = 0;  // 0 = not yet hit this replication
};

// --- popularity_floor -------------------------------------------------------

/// The §4.3.2 popularity-floor audit: the worst min_j Q^t_j per replication
/// and, when `floor` > 0, the per-step rate at which min_j Q^t_j < floor
/// (the claim is that with zeta = mu(1-beta)/(4m) the rate is ~0).
class popularity_floor_probe final : public folding_probe {
 public:
  popularity_floor_probe(const probe_entry& entry, double floor)
      : folding_probe{entry, floor, k_stats}, floor_{floor} {
    if (!(floor >= 0.0 && floor < 1.0)) {
      throw std::invalid_argument{"popularity_floor: floor must be in [0,1)"};
    }
  }

  void begin_replication(std::uint64_t /*horizon*/) override {
    worst_ = 1.0;
    violations_ = 0;
  }

  void on_step(const probe_step_view& step) override {
    const auto q = step.engine.popularity();
    const double min_q = *std::min_element(q.begin(), q.end());
    worst_ = std::min(worst_, min_q);
    if (min_q < floor_) ++violations_;
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t horizon) override {
    stat(k_min).add(worst_);
    stat(k_violation_rate)
        .add(static_cast<double>(violations_) / static_cast<double>(horizon));
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("floor", floor_));
    out.scalars.push_back(ci_scalar("min_popularity", stat(k_min)));
    out.scalars.push_back(plain_scalar("min_popularity_worst", stat(k_min).min()));
    out.scalars.push_back(ci_scalar("violation_rate", stat(k_violation_rate)));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(stat(k_min).count())));
    return out;
  }

 private:
  enum : std::size_t {
    k_min,             // per-replication worst min_j Q^t_j
    k_violation_rate,  // per-replication fraction of violating steps
    k_stats
  };

  double floor_;
  double worst_ = 1.0;
  std::uint64_t violations_ = 0;
};

// --- final_histogram --------------------------------------------------------

/// Per-option mean of the final popularity Q^T across replications; option
/// j is statistic j.
class final_histogram_probe final : public folding_probe {
 public:
  final_histogram_probe(const probe_entry& entry, double arg) : folding_probe{entry, arg, 0} {}

  void begin_replication(std::uint64_t /*horizon*/) override {}

  void on_step(const probe_step_view& /*step*/) override {}

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    const auto q = engine.popularity();
    size_stats(q.size());
    for (std::size_t j = 0; j < q.size(); ++j) stat(j).add(q[j]);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    const std::uint64_t reps = stat_count() == 0 ? 0 : stat(0).count();
    out.scalars.push_back(plain_scalar("replications", static_cast<double>(reps)));
    probe_series means{"final_popularity_mean", {}};
    probe_series widths{"final_popularity_half_width", {}};
    for (std::size_t j = 0; j < stat_count(); ++j) {
      const mean_ci ci = confidence_interval(stat(j));
      means.values.push_back(ci.mean);
      widths.values.push_back(ci.half_width);
    }
    out.series.push_back(std::move(means));
    out.series.push_back(std::move(widths));
    return out;
  }
};

// --- recovery ---------------------------------------------------------------

/// Recovery time in changing environments (§6; cf. Frongillo–Schoenebeck–
/// Tamuz): after every step where best_option(t) changes, the number of
/// steps until the post-step mass of the new best option reaches 1 - eps.
/// Switches that never recover before the horizon (or before the next
/// switch) are counted separately.
class recovery_probe final : public folding_probe {
 public:
  recovery_probe(const probe_entry& entry, double eps)
      : folding_probe{entry, eps, k_stats, k_tallies}, threshold_{1.0 - eps} {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument{"recovery: eps must be in (0,1)"};
    }
  }

  void begin_replication(std::uint64_t /*horizon*/) override {
    prev_best_ = static_cast<std::size_t>(-1);
    pending_since_ = 0;
  }

  void on_step(const probe_step_view& step) override {
    best_cache_.refresh(step);
    const std::size_t best = best_cache_.best;
    if (prev_best_ != static_cast<std::size_t>(-1) && best != prev_best_) {
      if (pending_since_ != 0) ++tally(k_unrecovered);  // next switch arrived first
      pending_since_ = step.t;
      ++tally(k_switches);
    }
    prev_best_ = best;
    if (pending_since_ != 0 && step.engine.popularity()[best] >= threshold_) {
      stat(k_times).add(static_cast<double>(step.t - pending_since_));
      pending_since_ = 0;
    }
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    if (pending_since_ != 0) {
      ++tally(k_unrecovered);
      pending_since_ = 0;
    }
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("threshold", threshold_));
    out.scalars.push_back(plain_scalar("switches", static_cast<double>(tally(k_switches))));
    out.scalars.push_back(plain_scalar("recovered", static_cast<double>(stat(k_times).count())));
    out.scalars.push_back(
        plain_scalar("unrecovered", static_cast<double>(tally(k_unrecovered))));
    out.scalars.push_back(ci_scalar("recovery_time", stat(k_times)));
    return out;
  }

 private:
  enum : std::size_t { k_times, k_stats };
  enum : std::size_t { k_switches, k_unrecovered, k_tallies };

  double threshold_;  // 1 - eps
  best_option_cache best_cache_;
  std::size_t prev_best_ = static_cast<std::size_t>(-1);
  std::uint64_t pending_since_ = 0;  // 0 = no outstanding switch
};

// --- message_cost -----------------------------------------------------------

/// The net-instrumented view of an engine, or nullptr when it has none.
const net_instrumented* net_view(const dynamics_engine& engine) {
  return dynamic_cast<const net_instrumented*>(&engine);
}

/// Wire-cost accounting for net-instrumented engines: per-round messages,
/// bytes, timers (normalized by the horizon) and the end-to-end drop rate.
/// The "appropriate for low-power devices" reading of §6 needs exactly
/// this: what does the distributed implementation cost on the air?
class message_cost_probe final : public folding_probe {
 public:
  message_cost_probe(const probe_entry& entry, double arg)
      : folding_probe{entry, arg, k_stats} {}

  void begin_replication(std::uint64_t /*horizon*/) override {}

  void on_step(const probe_step_view& /*step*/) override {}

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t horizon) override {
    const net_instrumented* net = net_view(engine);
    if (net == nullptr) return;
    const net_metrics metrics = net->sample_net();
    const double h = static_cast<double>(horizon);
    const double sent = static_cast<double>(metrics.messages_sent);
    stat(k_messages_per_round).add(sent / h);
    stat(k_messages_per_node_round)
        .add(metrics.nodes == 0 ? 0.0 : sent / h / static_cast<double>(metrics.nodes));
    stat(k_bytes_per_round).add(static_cast<double>(metrics.bytes_sent) / h);
    stat(k_timers_per_round).add(static_cast<double>(metrics.timers_fired) / h);
    stat(k_drop_rate).add(metrics.messages_sent == 0
                              ? 0.0
                              : static_cast<double>(metrics.messages_dropped) / sent);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("messages_per_round", stat(k_messages_per_round)));
    out.scalars.push_back(
        ci_scalar("messages_per_node_round", stat(k_messages_per_node_round)));
    out.scalars.push_back(ci_scalar("bytes_per_round", stat(k_bytes_per_round)));
    out.scalars.push_back(ci_scalar("timers_per_round", stat(k_timers_per_round)));
    out.scalars.push_back(ci_scalar("drop_rate", stat(k_drop_rate)));
    out.scalars.push_back(plain_scalar(
        "replications", static_cast<double>(stat(k_messages_per_round).count())));
    return out;
  }

 private:
  enum : std::size_t {
    k_messages_per_round,
    k_messages_per_node_round,
    k_bytes_per_round,
    k_timers_per_round,
    k_drop_rate,
    k_stats
  };
};

// --- commit_latency ---------------------------------------------------------

/// Commit latency for net-instrumented engines: the mean length, in
/// protocol rounds, of an uncommitted spell before the node commits, plus
/// commit events per round.  The protocol analogue of hitting-time-style
/// convergence metrics (cf. Su–Zubeldia–Lynch).
class commit_latency_probe final : public folding_probe {
 public:
  commit_latency_probe(const probe_entry& entry, double arg)
      : folding_probe{entry, arg, k_stats} {}

  void begin_replication(std::uint64_t /*horizon*/) override {}

  void on_step(const probe_step_view& /*step*/) override {}

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t horizon) override {
    const net_instrumented* net = net_view(engine);
    if (net == nullptr) return;
    const net_metrics metrics = net->sample_net();
    if (metrics.commit_events > 0) {
      stat(k_latency).add(metrics.commit_latency_rounds /
                          static_cast<double>(metrics.commit_events));
    }
    stat(k_commits_per_round)
        .add(static_cast<double>(metrics.commit_events) / static_cast<double>(horizon));
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("commit_latency_rounds", stat(k_latency)));
    out.scalars.push_back(ci_scalar("commits_per_round", stat(k_commits_per_round)));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(stat(k_commits_per_round).count())));
    return out;
  }

 private:
  enum : std::size_t {
    k_latency,  // per-replication mean latency (rounds); only replications
                // with >= 1 commit event contribute
    k_commits_per_round,
    k_stats
  };
};

// --- adoption ---------------------------------------------------------------

/// Adoption under churn for net-instrumented engines: the committed
/// fraction (of alive nodes) averaged over the horizon and at the end, and
/// the final alive fraction.
class adoption_probe final : public folding_probe {
 public:
  adoption_probe(const probe_entry& entry, double arg) : folding_probe{entry, arg, k_stats} {}

  void begin_replication(std::uint64_t /*horizon*/) override {
    committed_fraction_sum_ = 0.0;
    observed_steps_ = 0;
  }

  void on_step(const probe_step_view& step) override {
    const net_instrumented* net = net_view(step.engine);
    if (net == nullptr) return;
    const net_metrics metrics = net->sample_net();
    committed_fraction_sum_ += metrics.alive == 0
                                   ? 0.0
                                   : static_cast<double>(metrics.committed) /
                                         static_cast<double>(metrics.alive);
    ++observed_steps_;
  }

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    const net_instrumented* net = net_view(engine);
    if (net == nullptr || observed_steps_ == 0) return;
    stat(k_committed_fraction)
        .add(committed_fraction_sum_ / static_cast<double>(observed_steps_));
    const net_metrics metrics = net->sample_net();
    stat(k_final_committed_fraction)
        .add(metrics.alive == 0 ? 0.0
                                : static_cast<double>(metrics.committed) /
                                      static_cast<double>(metrics.alive));
    stat(k_final_alive_fraction)
        .add(metrics.nodes == 0 ? 0.0
                                : static_cast<double>(metrics.alive) /
                                      static_cast<double>(metrics.nodes));
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("committed_fraction", stat(k_committed_fraction)));
    out.scalars.push_back(
        ci_scalar("final_committed_fraction", stat(k_final_committed_fraction)));
    out.scalars.push_back(ci_scalar("final_alive_fraction", stat(k_final_alive_fraction)));
    out.scalars.push_back(plain_scalar(
        "replications", static_cast<double>(stat(k_committed_fraction).count())));
    return out;
  }

 private:
  enum : std::size_t {
    k_committed_fraction,  // mean over the horizon, per rep
    k_final_committed_fraction,
    k_final_alive_fraction,
    k_stats
  };

  double committed_fraction_sum_ = 0.0;
  std::uint64_t observed_steps_ = 0;
};

// --- partition_divergence ---------------------------------------------------

/// ½ · Σ_j |p^A_j − p^B_j| — total variation distance between the two
/// sides' committed-option histograms.  Only meaningful when both sides
/// have committed nodes (the caller checks).
double side_divergence(const partition_sample& sample) {
  double sum = 0.0;
  for (std::size_t j = 0; j < sample.side_a_popularity.size(); ++j) {
    sum += std::abs(sample.side_a_popularity[j] - sample.side_b_popularity[j]);
  }
  return 0.5 * sum;
}

/// Disagreement across a scheduled network cut, for net-instrumented
/// engines (the protocol engine under a `faults.*` partition).  While the
/// cut is active it measures the per-side disagreement
/// div = ½ · Σ_j |p^A_j − p^B_j| over the two sides' committed-option
/// histograms (total variation distance); after the heal it measures the
/// number of steps until div first drops to `eps` (re-convergence — the §6
/// robustness question: does the dynamics re-mix after the network does?).
/// Steps where either side has no committed nodes yet are not measurable
/// and do not contribute.  Engines without a network view, or runs whose
/// schedule never partitions, report zero replications.
class partition_divergence_probe final : public folding_probe {
 public:
  partition_divergence_probe(const probe_entry& entry, double eps)
      : folding_probe{entry, eps, k_stats, k_tallies}, eps_{eps} {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument{"partition_divergence: eps must be in (0,1)"};
    }
  }

  void begin_replication(std::uint64_t /*horizon*/) override {
    steps_partitioned_ = 0;
    div_sum_ = 0.0;
    div_steps_ = 0;
    div_max_ = 0.0;
    was_partitioned_ = false;
    heal_step_ = 0;
    reconverge_at_ = 0;
    reconverged_ = false;
  }

  void on_step(const probe_step_view& step) override {
    const net_instrumented* net = net_view(step.engine);
    if (net == nullptr) return;
    const partition_sample sample = net->sample_partition();
    if (!sample.has_sides) return;
    const bool measurable = sample.side_a_committed > 0 && sample.side_b_committed > 0;
    const double div = measurable ? side_divergence(sample) : 0.0;
    if (sample.partitioned) {
      ++steps_partitioned_;
      was_partitioned_ = true;
      heal_step_ = 0;  // a later cut restarts the re-convergence clock
      reconverged_ = false;
      if (measurable) {
        div_sum_ += div;
        ++div_steps_;
        div_max_ = std::max(div_max_, div);
      }
    } else if (was_partitioned_) {
      if (heal_step_ == 0) heal_step_ = step.t;  // first post-heal step
      if (!reconverged_ && measurable && div <= eps_) {
        reconverged_ = true;
        reconverge_at_ = step.t;
      }
    }
  }

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    if (net_view(engine) == nullptr || !was_partitioned_) return;
    stat(k_partition_steps).add(static_cast<double>(steps_partitioned_));
    if (div_steps_ > 0) {
      stat(k_divergence).add(div_sum_ / static_cast<double>(div_steps_));
      stat(k_divergence_max).add(div_max_);
    }
    if (heal_step_ != 0) {
      if (reconverged_) {
        stat(k_reconvergence).add(static_cast<double>(reconverge_at_ - heal_step_));
      } else {
        ++tally(k_unrecovered);
      }
    }
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("partition_steps", stat(k_partition_steps)));
    out.scalars.push_back(ci_scalar("divergence", stat(k_divergence)));
    out.scalars.push_back(ci_scalar("divergence_max", stat(k_divergence_max)));
    out.scalars.push_back(ci_scalar("reconvergence_steps", stat(k_reconvergence)));
    out.scalars.push_back(
        plain_scalar("unrecovered", static_cast<double>(tally(k_unrecovered))));
    out.scalars.push_back(plain_scalar(
        "replications", static_cast<double>(stat(k_partition_steps).count())));
    return out;
  }

 private:
  enum : std::size_t {
    k_partition_steps,  // steps spent partitioned, per rep
    k_divergence,       // mean measurable in-cut divergence, per rep
    k_divergence_max,   // worst in-cut divergence, per rep
    k_reconvergence,    // steps from heal until div <= eps
    k_stats
  };
  enum : std::size_t {
    k_unrecovered,  // healed reps that never re-converged
    k_tallies
  };

  double eps_;
  std::uint64_t steps_partitioned_ = 0;
  double div_sum_ = 0.0;
  std::uint64_t div_steps_ = 0;
  double div_max_ = 0.0;
  bool was_partitioned_ = false;
  std::uint64_t heal_step_ = 0;      // first post-heal step (0 = none yet)
  std::uint64_t reconverge_at_ = 0;  // step where div first <= eps post-heal
  bool reconverged_ = false;
};

// --- concentration ----------------------------------------------------------

/// The one rule of a homogeneous aggregate engine, or null: the analysis
/// probes apply to the exact aggregate engine with exactly one rule group.
const adoption_rule* single_rule(const aggregate_dynamics* engine) {
  if (engine == nullptr || engine->groups().size() != 1) return nullptr;
  return &engine->groups().front().rule;
}

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
class concentration_probe final : public folding_probe {
 public:
  concentration_probe(const probe_entry& entry, double arg)
      : folding_probe{entry, arg, k_stats} {}

  void begin_replication(std::uint64_t /*horizon*/) override {
    applies_ = false;
    worst1_ = 0.0;
    worst2_ = 0.0;
    worst3_ = 0.0;
  }

  void on_step(const probe_step_view& step) override {
    const auto* engine = dynamic_cast<const aggregate_dynamics*>(&step.engine);
    const adoption_rule* rule = single_rule(engine);
    if (rule == nullptr) return;
    const dynamics_params& params = engine->params();
    const double n = static_cast<double>(engine->num_agents());
    if (step.t == 1) {
      applies_ = params.mu > 0.0 && rule->beta > 0.0 && rule->beta < 1.0 && n >= 2.0;
      if (!applies_) return;
      const double dp = theory::delta_prime(params.num_options, params.mu, n);
      const double ddp =
          theory::delta_double_prime(params.num_options, params.mu, rule->beta, n);
      radius1_ = 2.0 * dp;
      radius2_ = 2.0 * ddp;
      radius3_ = 6.0 * ddp;
    }
    if (!applies_) return;
    const auto stage = engine->stage_counts();
    const auto adopt = engine->adopter_counts();
    const double m = static_cast<double>(params.num_options);
    for (std::size_t j = 0; j < stage.size(); ++j) {
      const double expected =
          ((1.0 - params.mu) * step.popularity_before[j] + params.mu / m) * n;
      const double s_j = static_cast<double>(stage[j]);
      const double d_j = static_cast<double>(adopt[j]);
      worst1_ = std::max(worst1_, std::abs(s_j / expected - 1.0) / radius1_);
      const double g = step.rewards[j] != 0 ? rule->beta : rule->alpha;
      if (g <= 0.0) continue;
      if (stage[j] > 0) worst2_ = std::max(worst2_, std::abs(d_j / (s_j * g) - 1.0) / radius2_);
      worst3_ = std::max(worst3_, std::abs(d_j / (expected * g) - 1.0) / radius3_);
    }
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    if (!applies_) return;
    stat(k_stage1).add(worst1_);
    stat(k_stage2).add(worst2_);
    stat(k_combined).add(worst3_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("stage1", stat(k_stage1).max()));
    out.scalars.push_back(plain_scalar("stage2", stat(k_stage2).max()));
    out.scalars.push_back(plain_scalar("combined", stat(k_combined).max()));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(stat(k_stage1).count())));
    return out;
  }

 private:
  enum : std::size_t {
    k_stage1,    // per-replication worst, in units of 2δ′
    k_stage2,    // ... of 2δ″
    k_combined,  // ... of 6δ″
    k_stats
  };

  bool applies_ = false;
  double radius1_ = 0.0;
  double radius2_ = 0.0;
  double radius3_ = 0.0;
  double worst1_ = 0.0;
  double worst2_ = 0.0;
  double worst3_ = 0.0;
};

// --- coupling ---------------------------------------------------------------

/// Lemma 4.5's coupling, on the exact aggregate engine with exactly one
/// rule group (as concentration): a shadow infinite_dynamics with that
/// group's (α, β) starts from step 1's Q^0 and steps on every step's
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
class coupling_probe final : public folding_probe {
 public:
  coupling_probe(const probe_entry& entry, double arg)
      : folding_probe{entry, arg, k_stats, k_tallies} {}

  void begin_replication(std::uint64_t /*horizon*/) override {
    shadow_.reset();
    worst_ = 0.0;
    within_ = 0;
    steps_ = 0;
  }

  void on_step(const probe_step_view& step) override {
    const auto* engine = dynamic_cast<const aggregate_dynamics*>(&step.engine);
    const adoption_rule* rule = single_rule(engine);
    if (rule == nullptr) return;
    dynamics_params params = engine->params();
    params.alpha = rule->alpha;
    params.beta = rule->beta;
    if (step.t == 1) {
      shadow_ = std::make_unique<infinite_dynamics>(params, step.popularity_before);
      num_agents_ = static_cast<double>(engine->num_agents());
    }
    if (shadow_ == nullptr) return;
    shadow_->step(step.rewards);  // the same reward realization: the coupling

    const auto p = shadow_->distribution();
    const auto q = step.engine.popularity();
    double deviation = 0.0;
    for (std::size_t j = 0; j < p.size(); ++j) {
      const double ratio = q[j] <= 0.0 || p[j] <= 0.0 ? std::numeric_limits<double>::infinity()
                                                       : std::max(p[j] / q[j], q[j] / p[j]);
      deviation = std::max(deviation, ratio - 1.0);
    }
    const bool in_regime = params.mu > 0.0 && params.beta > 0.0 && params.beta < 1.0 &&
                           num_agents_ >= 2.0;
    const double bound = in_regime ? theory::coupling_bound(step.t, params.num_options,
                                                            params.mu, params.beta, num_agents_)
                                   : std::numeric_limits<double>::infinity();
    if (deviation <= bound) ++within_;
    if (deviation > k_deviation_cap) {
      ++tally(k_capped_steps);
      deviation = k_deviation_cap;
    }
    worst_ = std::max(worst_, deviation);
    ++steps_;

    best_cache_.refresh(step);
    stat(k_sampling).add(q[best_cache_.best] - p[best_cache_.best]);
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    if (shadow_ == nullptr) return;
    stat(k_deviation).add(worst_);
    stat(k_within_bound).add(static_cast<double>(within_) / static_cast<double>(steps_));
    stat(k_num_agents).add(num_agents_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("deviation", stat(k_deviation)));
    out.scalars.push_back(plain_scalar("deviation_max", stat(k_deviation).max()));
    out.scalars.push_back(
        plain_scalar("capped_steps", static_cast<double>(tally(k_capped_steps))));
    out.scalars.push_back(ci_scalar("within_bound", stat(k_within_bound)));
    out.scalars.push_back(plain_scalar(
        "sampling_sd_sqrt_n", stat(k_sampling).stddev() * std::sqrt(stat(k_num_agents).max())));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(stat(k_deviation).count())));
    return out;
  }

 private:
  static constexpr double k_deviation_cap = 10.0;
  enum : std::size_t {
    k_deviation,     // per-replication worst capped deviation
    k_within_bound,  // per-replication fraction of steps
    k_sampling,      // Q_best − P_best, every step
    k_num_agents,    // per-replication N (read through max())
    k_stats
  };
  enum : std::size_t { k_capped_steps, k_tallies };

  std::unique_ptr<infinite_dynamics> shadow_;
  best_option_cache best_cache_;
  double num_agents_ = 0.0;
  double worst_ = 0.0;
  std::uint64_t within_ = 0;
  std::uint64_t steps_ = 0;
};

// --- proof_audit ------------------------------------------------------------

/// §5's proof of Theorem 4.3, replayed pathwise by core::proof_auditor on
/// the infinite engine: `min_slack` is the worst slack of the potential
/// bounds and the combined regret inequality over every step of every
/// replication (>= 0 means each inequality held on every path).  Applies
/// only from the uniform start inside the theorem regime
/// (dynamics_params::satisfies_theorem_conditions).
class proof_audit_probe final : public folding_probe {
 public:
  proof_audit_probe(const probe_entry& entry, double arg)
      : folding_probe{entry, arg, k_stats} {}

  void begin_replication(std::uint64_t /*horizon*/) override { auditor_.reset(); }

  void on_step(const probe_step_view& step) override {
    const auto* engine = dynamic_cast<const infinite_dynamics*>(&step.engine);
    if (engine == nullptr) return;
    if (step.t == 1) {
      const auto start = step.popularity_before;
      const bool uniform = std::all_of(start.begin(), start.end(),
                                       [&](double p) { return p == start.front(); });
      if (uniform && engine->params().satisfies_theorem_conditions()) {
        auditor_ = std::make_unique<proof_auditor>(engine->params());
      }
    }
    if (auditor_ != nullptr) {
      auditor_->observe(step.popularity_before, step.rewards, engine->log_potential());
    }
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    if (auditor_ != nullptr) stat(k_worst_slack).add(auditor_->worst_slack());
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("min_slack", stat(k_worst_slack).min()));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(stat(k_worst_slack).count())));
    return out;
  }

 private:
  enum : std::size_t { k_worst_slack, k_stats };  // per-replication worst slack

  std::unique_ptr<proof_auditor> auditor_;  // this replication's, when it applies
};

// --- probe spec grammar -----------------------------------------------------

/// Parses `key=value, key=value` into pairs; each value is a JSON number.
std::vector<std::pair<std::string, double>> parse_probe_args(std::string_view spec,
                                                             std::string_view args) {
  std::vector<std::pair<std::string, double>> out;
  std::size_t start = 0;
  while (start <= args.size()) {
    std::size_t comma = args.find(',', start);
    if (comma == std::string_view::npos) comma = args.size();
    const std::string_view item = trim_ascii(args.substr(start, comma - start));
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        throw std::invalid_argument{"probe '" + std::string{spec} +
                                    "': arguments must be key=value"};
      }
      const std::string_view text = trim_ascii(item.substr(eq + 1));
      const std::optional<double> value = parse_json_number(text);
      if (!value) {
        throw std::invalid_argument{"probe '" + std::string{spec} + "': bad numeric value '" +
                                    std::string{text} + "'"};
      }
      out.emplace_back(std::string{trim_ascii(item.substr(0, eq))}, *value);
    }
    start = comma + 1;
  }
  return out;
}

void no_args(std::string_view spec,
             const std::vector<std::pair<std::string, double>>& args) {
  if (!args.empty()) {
    throw std::invalid_argument{"probe '" + std::string{spec} + "' takes no arguments"};
  }
}

double only_arg(std::string_view spec,
                const std::vector<std::pair<std::string, double>>& args,
                std::string_view key, double fallback) {
  double value = fallback;
  for (const auto& [k, v] : args) {
    if (k != key) {
      throw std::invalid_argument{"probe '" + std::string{spec} + "': unknown argument '" +
                                  k + "' (expected '" + std::string{key} + "')"};
    }
    value = v;
  }
  return value;
}

template <class P>
std::unique_ptr<probe> build(const probe_entry& entry, double arg) {
  return std::make_unique<P>(entry, arg);
}

constexpr std::array<probe_entry, 13> k_probes{{
    {"regret", {}, 0.0, build<regret_probe>},
    {"trajectory", {}, 0.0, build<trajectory_probe>},
    {"hitting_time", "eps", 0.1, build<hitting_time_probe>},
    {"popularity_floor", "floor", 0.0, build<popularity_floor_probe>},
    {"final_histogram", {}, 0.0, build<final_histogram_probe>},
    {"recovery", "eps", 0.5, build<recovery_probe>},
    {"concentration", {}, 0.0, build<concentration_probe>},
    {"coupling", {}, 0.0, build<coupling_probe>},
    {"proof_audit", {}, 0.0, build<proof_audit_probe>},
    {"message_cost", {}, 0.0, build<message_cost_probe>},
    {"commit_latency", {}, 0.0, build<commit_latency_probe>},
    {"adoption", {}, 0.0, build<adoption_probe>},
    {"partition_divergence", "eps", 0.1, build<partition_divergence_probe>},
}};

}  // namespace

std::unique_ptr<probe> make_probe(std::string_view spec) {
  const std::string_view trimmed = trim_ascii(spec);
  std::string_view name = trimmed;
  std::string_view args;
  if (const std::size_t open = trimmed.find('('); open != std::string_view::npos) {
    if (trimmed.back() != ')') {
      throw std::invalid_argument{"probe '" + std::string{trimmed} +
                                  "': missing closing ')'"};
    }
    name = trim_ascii(trimmed.substr(0, open));
    args = trimmed.substr(open + 1, trimmed.size() - open - 2);
  }
  const auto parsed = parse_probe_args(trimmed, args);

  for (const probe_entry& entry : k_probes) {
    if (entry.name != name) continue;
    if (entry.arg_key.empty()) {
      no_args(trimmed, parsed);
      return entry.make(entry, 0.0);
    }
    return entry.make(entry, only_arg(trimmed, parsed, entry.arg_key, entry.arg_default));
  }

  std::array<std::string_view, k_probes.size()> names;
  std::transform(k_probes.begin(), k_probes.end(), names.begin(),
                 [](const probe_entry& entry) { return entry.name; });
  std::string message{"unknown probe '"};
  message += name;
  message += "'";
  const std::string suggestion = closest_name(name, names);
  if (!suggestion.empty()) {
    message += " (did you mean '";
    message += suggestion;
    message += "'?)";
  }
  message += "; known:";
  for (const std::string_view known : names) {
    message += ' ';
    message += known;
  }
  throw std::invalid_argument{message};
}

std::vector<std::string> split_probe_specs(std::string_view text) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] == '(') ++depth;
    if (i < text.size() && text[i] == ')') --depth;
    if (i == text.size() || (text[i] == ',' && depth == 0)) {
      const std::string_view item = trim_ascii(text.substr(start, i - start));
      if (!item.empty()) out.emplace_back(item);
      start = i + 1;
    }
  }
  return out;
}

probe_list make_probes(std::span<const std::string> specs) {
  probe_list out;
  out.reserve(specs.size());
  for (const std::string& spec : specs) out.push_back(make_probe(spec));
  return out;
}

std::vector<probe_report> collect_reports(const probe_list& probes) {
  std::vector<probe_report> out;
  out.reserve(probes.size());
  for (const auto& p : probes) out.push_back(p->report());
  return out;
}

}  // namespace sgl::core
