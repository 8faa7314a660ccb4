#include "core/probe.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/aggregate_dynamics.h"
#include "core/infinite_dynamics.h"
#include "core/net_metrics.h"
#include "core/proof_audit.h"
#include "core/theory.h"
#include "support/stats.h"
#include "support/text.h"  // trim_ascii / parse_full_double / closest_name

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

std::vector<double> series_means(const series_stats& s) {
  std::vector<double> out(s.length());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = s.mean(i);
  return out;
}

std::vector<double> series_half_widths(const series_stats& s) {
  std::vector<double> out(s.length());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = s.ci(i).half_width;
  return out;
}

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
class regret_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "regret"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<regret_probe>();
  }

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
    regret_.add((best_mean_sum_ - reward_sum_) / h);
    average_reward_.add(reward_sum_ / h);
    best_mass_.add(best_mass_sum_ / h);
    const auto q_final = engine.popularity();
    final_best_mass_.add(q_final[environment.best_option(horizon)]);
    empty_fraction_.add(static_cast<double>(engine.empty_steps()) / h);
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const regret_probe&>(other);
    regret_.merge(o.regret_);
    average_reward_.merge(o.average_reward_);
    best_mass_.merge(o.best_mass_);
    final_best_mass_.merge(o.final_best_mass_);
    empty_fraction_.merge(o.empty_fraction_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("regret", regret_));
    out.scalars.push_back(ci_scalar("average_reward", average_reward_));
    out.scalars.push_back(ci_scalar("best_mass", best_mass_));
    out.scalars.push_back(ci_scalar("final_best_mass", final_best_mass_));
    out.scalars.push_back(plain_scalar("empty_step_fraction", empty_fraction_.mean()));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(regret_.count())));
    return out;
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

// --- trajectory -------------------------------------------------------------

/// The per-step curves (running regret, best mass, min popularity), pinned
/// bit for bit by the probe_golden tests (tests/probe_test.cpp).
class trajectory_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "trajectory"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<trajectory_probe>();
  }

  void begin_replication(std::uint64_t horizon) override {
    if (!running_regret_ || running_regret_->length() != horizon) {
      running_regret_.emplace(horizon);
      best_mass_.emplace(horizon);
      min_popularity_.emplace(horizon);
    }
    reward_sum_ = 0.0;
    best_mean_sum_ = 0.0;
    regret_curve_.clear();
    best_curve_.clear();
    min_pop_curve_.clear();
    regret_curve_.reserve(horizon);
    best_curve_.reserve(horizon);
    min_pop_curve_.reserve(horizon);
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
    regret_curve_.push_back((best_mean_sum_ - reward_sum_) / td);
    const auto q_now = step.engine.popularity();
    best_curve_.push_back(q_now[best]);
    min_pop_curve_.push_back(*std::min_element(q_now.begin(), q_now.end()));
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    running_regret_->add_series(regret_curve_);
    best_mass_->add_series(best_curve_);
    min_popularity_->add_series(min_pop_curve_);
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const trajectory_probe&>(other);
    if (!o.running_regret_) return;
    if (!running_regret_) {
      running_regret_ = o.running_regret_;
      best_mass_ = o.best_mass_;
      min_popularity_ = o.min_popularity_;
      return;
    }
    running_regret_->merge(*o.running_regret_);
    best_mass_->merge(*o.best_mass_);
    min_popularity_->merge(*o.min_popularity_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    if (!running_regret_) return out;
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(running_regret_->replications())));
    out.series.push_back({"running_regret_mean", series_means(*running_regret_)});
    out.series.push_back({"running_regret_half_width", series_half_widths(*running_regret_)});
    out.series.push_back({"best_mass_mean", series_means(*best_mass_)});
    out.series.push_back({"best_mass_half_width", series_half_widths(*best_mass_)});
    out.series.push_back({"min_popularity_mean", series_means(*min_popularity_)});
    out.series.push_back({"min_popularity_half_width", series_half_widths(*min_popularity_)});
    return out;
  }

 private:
  // Engaged once the first replication began; length = horizon.
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

// --- hitting_time -----------------------------------------------------------

/// Consensus / hitting time: the first step t at which the post-step mass of
/// the current best option reaches 1 - eps.  Something the fixed reduction
/// could not express (cf. Su–Zubeldia–Lynch's convergence-time metrics).
class hitting_time_probe final : public probe {
 public:
  explicit hitting_time_probe(double eps) : threshold_{1.0 - eps} {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument{"hitting_time: eps must be in (0,1)"};
    }
  }

  [[nodiscard]] std::string name() const override { return "hitting_time"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<hitting_time_probe>(1.0 - threshold_);
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
    hit_fraction_.add(hit_at_ != 0 ? 1.0 : 0.0);
    if (hit_at_ != 0) time_.add(static_cast<double>(hit_at_));
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const hitting_time_probe&>(other);
    hit_fraction_.merge(o.hit_fraction_);
    time_.merge(o.time_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("threshold", threshold_));
    out.scalars.push_back(ci_scalar("hit_fraction", hit_fraction_));
    out.scalars.push_back(ci_scalar("hitting_time", time_));
    out.scalars.push_back(plain_scalar("hits", static_cast<double>(time_.count())));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(hit_fraction_.count())));
    return out;
  }

 private:
  double threshold_;  // 1 - eps
  running_stats hit_fraction_;
  running_stats time_;
  best_option_cache best_cache_;
  std::uint64_t hit_at_ = 0;  // 0 = not yet hit this replication
};

// --- popularity_floor -------------------------------------------------------

/// The §4.3.2 popularity-floor audit: the worst min_j Q^t_j per replication
/// and, when `floor` > 0, the per-step rate at which min_j Q^t_j < floor
/// (the claim is that with zeta = mu(1-beta)/(4m) the rate is ~0).
class popularity_floor_probe final : public probe {
 public:
  explicit popularity_floor_probe(double floor) : floor_{floor} {
    if (!(floor >= 0.0 && floor < 1.0)) {
      throw std::invalid_argument{"popularity_floor: floor must be in [0,1)"};
    }
  }

  [[nodiscard]] std::string name() const override { return "popularity_floor"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<popularity_floor_probe>(floor_);
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
    min_.add(worst_);
    violation_rate_.add(static_cast<double>(violations_) / static_cast<double>(horizon));
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const popularity_floor_probe&>(other);
    min_.merge(o.min_);
    violation_rate_.merge(o.violation_rate_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("floor", floor_));
    out.scalars.push_back(ci_scalar("min_popularity", min_));
    out.scalars.push_back(plain_scalar("min_popularity_worst", min_.min()));
    out.scalars.push_back(ci_scalar("violation_rate", violation_rate_));
    out.scalars.push_back(plain_scalar("replications", static_cast<double>(min_.count())));
    return out;
  }

 private:
  double floor_;
  running_stats min_;             // per-replication worst min_j Q^t_j
  running_stats violation_rate_;  // per-replication fraction of violating steps
  double worst_ = 1.0;
  std::uint64_t violations_ = 0;
};

// --- final_histogram --------------------------------------------------------

/// Per-option mean of the final popularity Q^T across replications.
class final_histogram_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "final_histogram"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<final_histogram_probe>();
  }

  void begin_replication(std::uint64_t /*horizon*/) override {}

  void on_step(const probe_step_view& /*step*/) override {}

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    const auto q = engine.popularity();
    if (per_option_.size() != q.size()) per_option_.assign(q.size(), running_stats{});
    for (std::size_t j = 0; j < q.size(); ++j) per_option_[j].add(q[j]);
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const final_histogram_probe&>(other);
    if (o.per_option_.empty()) return;
    if (per_option_.empty()) {
      per_option_ = o.per_option_;
      return;
    }
    for (std::size_t j = 0; j < per_option_.size(); ++j) per_option_[j].merge(o.per_option_[j]);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    const std::uint64_t reps = per_option_.empty() ? 0 : per_option_.front().count();
    out.scalars.push_back(plain_scalar("replications", static_cast<double>(reps)));
    probe_series means{"final_popularity_mean", {}};
    probe_series widths{"final_popularity_half_width", {}};
    for (const auto& s : per_option_) {
      const mean_ci ci = confidence_interval(s);
      means.values.push_back(ci.mean);
      widths.values.push_back(ci.half_width);
    }
    out.series.push_back(std::move(means));
    out.series.push_back(std::move(widths));
    return out;
  }

 private:
  std::vector<running_stats> per_option_;
};

// --- recovery ---------------------------------------------------------------

/// Recovery time in changing environments (§6; cf. Frongillo–Schoenebeck–
/// Tamuz): after every step where best_option(t) changes, the number of
/// steps until the post-step mass of the new best option reaches 1 - eps.
/// Switches that never recover before the horizon (or before the next
/// switch) are counted separately.
class recovery_probe final : public probe {
 public:
  explicit recovery_probe(double eps) : threshold_{1.0 - eps} {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument{"recovery: eps must be in (0,1)"};
    }
  }

  [[nodiscard]] std::string name() const override { return "recovery"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<recovery_probe>(1.0 - threshold_);
  }

  void begin_replication(std::uint64_t /*horizon*/) override {
    prev_best_ = static_cast<std::size_t>(-1);
    pending_since_ = 0;
  }

  void on_step(const probe_step_view& step) override {
    best_cache_.refresh(step);
    const std::size_t best = best_cache_.best;
    if (prev_best_ != static_cast<std::size_t>(-1) && best != prev_best_) {
      if (pending_since_ != 0) ++unrecovered_;  // next switch arrived first
      pending_since_ = step.t;
      ++switches_;
    }
    prev_best_ = best;
    if (pending_since_ != 0 && step.engine.popularity()[best] >= threshold_) {
      times_.add(static_cast<double>(step.t - pending_since_));
      pending_since_ = 0;
    }
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    if (pending_since_ != 0) {
      ++unrecovered_;
      pending_since_ = 0;
    }
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const recovery_probe&>(other);
    times_.merge(o.times_);
    switches_ += o.switches_;
    unrecovered_ += o.unrecovered_;
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("threshold", threshold_));
    out.scalars.push_back(plain_scalar("switches", static_cast<double>(switches_)));
    out.scalars.push_back(plain_scalar("recovered", static_cast<double>(times_.count())));
    out.scalars.push_back(plain_scalar("unrecovered", static_cast<double>(unrecovered_)));
    out.scalars.push_back(ci_scalar("recovery_time", times_));
    return out;
  }

 private:
  double threshold_;  // 1 - eps
  running_stats times_;
  best_option_cache best_cache_;
  std::uint64_t switches_ = 0;
  std::uint64_t unrecovered_ = 0;
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
class message_cost_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "message_cost"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<message_cost_probe>();
  }

  void begin_replication(std::uint64_t /*horizon*/) override {}

  void on_step(const probe_step_view& /*step*/) override {}

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t horizon) override {
    const net_instrumented* net = net_view(engine);
    if (net == nullptr) return;
    const net_metrics metrics = net->sample_net();
    const double h = static_cast<double>(horizon);
    const double sent = static_cast<double>(metrics.messages_sent);
    messages_per_round_.add(sent / h);
    messages_per_node_round_.add(
        metrics.nodes == 0 ? 0.0 : sent / h / static_cast<double>(metrics.nodes));
    bytes_per_round_.add(static_cast<double>(metrics.bytes_sent) / h);
    timers_per_round_.add(static_cast<double>(metrics.timers_fired) / h);
    drop_rate_.add(metrics.messages_sent == 0
                       ? 0.0
                       : static_cast<double>(metrics.messages_dropped) / sent);
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const message_cost_probe&>(other);
    messages_per_round_.merge(o.messages_per_round_);
    messages_per_node_round_.merge(o.messages_per_node_round_);
    bytes_per_round_.merge(o.bytes_per_round_);
    timers_per_round_.merge(o.timers_per_round_);
    drop_rate_.merge(o.drop_rate_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("messages_per_round", messages_per_round_));
    out.scalars.push_back(ci_scalar("messages_per_node_round", messages_per_node_round_));
    out.scalars.push_back(ci_scalar("bytes_per_round", bytes_per_round_));
    out.scalars.push_back(ci_scalar("timers_per_round", timers_per_round_));
    out.scalars.push_back(ci_scalar("drop_rate", drop_rate_));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(messages_per_round_.count())));
    return out;
  }

 private:
  running_stats messages_per_round_;
  running_stats messages_per_node_round_;
  running_stats bytes_per_round_;
  running_stats timers_per_round_;
  running_stats drop_rate_;
};

// --- commit_latency ---------------------------------------------------------

/// Commit latency for net-instrumented engines: the mean length, in
/// protocol rounds, of an uncommitted spell before the node commits, plus
/// commit events per round.  The protocol analogue of hitting-time-style
/// convergence metrics (cf. Su–Zubeldia–Lynch).
class commit_latency_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "commit_latency"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<commit_latency_probe>();
  }

  void begin_replication(std::uint64_t /*horizon*/) override {}

  void on_step(const probe_step_view& /*step*/) override {}

  void end_replication(const dynamics_engine& engine, const env::reward_model& /*environment*/,
                       std::uint64_t horizon) override {
    const net_instrumented* net = net_view(engine);
    if (net == nullptr) return;
    const net_metrics metrics = net->sample_net();
    if (metrics.commit_events > 0) {
      latency_.add(metrics.commit_latency_rounds /
                   static_cast<double>(metrics.commit_events));
    }
    commits_per_round_.add(static_cast<double>(metrics.commit_events) /
                           static_cast<double>(horizon));
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const commit_latency_probe&>(other);
    latency_.merge(o.latency_);
    commits_per_round_.merge(o.commits_per_round_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("commit_latency_rounds", latency_));
    out.scalars.push_back(ci_scalar("commits_per_round", commits_per_round_));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(commits_per_round_.count())));
    return out;
  }

 private:
  running_stats latency_;  // per-replication mean latency (rounds); only
                           // replications with >= 1 commit event contribute
  running_stats commits_per_round_;
};

// --- adoption ---------------------------------------------------------------

/// Adoption under churn for net-instrumented engines: the committed
/// fraction (of alive nodes) averaged over the horizon and at the end, and
/// the final alive fraction.
class adoption_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "adoption"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<adoption_probe>();
  }

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
    committed_fraction_.add(committed_fraction_sum_ /
                            static_cast<double>(observed_steps_));
    const net_metrics metrics = net->sample_net();
    final_committed_fraction_.add(metrics.alive == 0
                                      ? 0.0
                                      : static_cast<double>(metrics.committed) /
                                            static_cast<double>(metrics.alive));
    final_alive_fraction_.add(metrics.nodes == 0
                                  ? 0.0
                                  : static_cast<double>(metrics.alive) /
                                        static_cast<double>(metrics.nodes));
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const adoption_probe&>(other);
    committed_fraction_.merge(o.committed_fraction_);
    final_committed_fraction_.merge(o.final_committed_fraction_);
    final_alive_fraction_.merge(o.final_alive_fraction_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("committed_fraction", committed_fraction_));
    out.scalars.push_back(ci_scalar("final_committed_fraction", final_committed_fraction_));
    out.scalars.push_back(ci_scalar("final_alive_fraction", final_alive_fraction_));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(committed_fraction_.count())));
    return out;
  }

 private:
  running_stats committed_fraction_;  // mean over the horizon, per rep
  running_stats final_committed_fraction_;
  running_stats final_alive_fraction_;
  double committed_fraction_sum_ = 0.0;
  std::uint64_t observed_steps_ = 0;
};

// --- partition_divergence ---------------------------------------------------

/// The partition-instrumented view of an engine, or nullptr when it has none.
const partition_instrumented* partition_view(const dynamics_engine& engine) {
  return dynamic_cast<const partition_instrumented*>(&engine);
}

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
  explicit partition_divergence_probe(double eps) : eps_{eps} {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument{"partition_divergence: eps must be in (0,1)"};
    }
  }

  [[nodiscard]] std::string name() const override { return "partition_divergence"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<partition_divergence_probe>(eps_);
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
    const partition_instrumented* view = partition_view(step.engine);
    if (view == nullptr) return;
    const partition_sample sample = view->sample_partition();
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
    if (partition_view(engine) == nullptr || !was_partitioned_) return;
    partition_steps_.add(static_cast<double>(steps_partitioned_));
    if (div_steps_ > 0) {
      divergence_.add(div_sum_ / static_cast<double>(div_steps_));
      divergence_max_.add(div_max_);
    }
    if (heal_step_ != 0) {
      if (reconverged_) {
        reconvergence_.add(static_cast<double>(reconverge_at_ - heal_step_));
      } else {
        ++unrecovered_;
      }
    }
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const partition_divergence_probe&>(other);
    partition_steps_.merge(o.partition_steps_);
    divergence_.merge(o.divergence_);
    divergence_max_.merge(o.divergence_max_);
    reconvergence_.merge(o.reconvergence_);
    unrecovered_ += o.unrecovered_;
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("partition_steps", partition_steps_));
    out.scalars.push_back(ci_scalar("divergence", divergence_));
    out.scalars.push_back(ci_scalar("divergence_max", divergence_max_));
    out.scalars.push_back(ci_scalar("reconvergence_steps", reconvergence_));
    out.scalars.push_back(plain_scalar("unrecovered", static_cast<double>(unrecovered_)));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(partition_steps_.count())));
    return out;
  }

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
class concentration_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "concentration"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<concentration_probe>();
  }

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
    stage1_.add(worst1_);
    stage2_.add(worst2_);
    combined_.add(worst3_);
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const concentration_probe&>(other);
    stage1_.merge(o.stage1_);
    stage2_.merge(o.stage2_);
    combined_.merge(o.combined_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("stage1", stage1_.max()));
    out.scalars.push_back(plain_scalar("stage2", stage2_.max()));
    out.scalars.push_back(plain_scalar("combined", combined_.max()));
    out.scalars.push_back(plain_scalar("replications", static_cast<double>(stage1_.count())));
    return out;
  }

 private:
  running_stats stage1_;    // per-replication worst, in units of 2δ′
  running_stats stage2_;    // ... of 2δ″
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
class coupling_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "coupling"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<coupling_probe>();
  }

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
      shadow_ = std::make_unique<infinite_dynamics>(params);
      shadow_->reset(step.popularity_before);
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
      ++capped_steps_;
      deviation = k_deviation_cap;
    }
    worst_ = std::max(worst_, deviation);
    ++steps_;

    best_cache_.refresh(step);
    sampling_.add(q[best_cache_.best] - p[best_cache_.best]);
  }

  void end_replication(const dynamics_engine& /*engine*/,
                       const env::reward_model& /*environment*/,
                       std::uint64_t /*horizon*/) override {
    if (shadow_ == nullptr) return;
    deviation_.add(worst_);
    within_bound_.add(static_cast<double>(within_) / static_cast<double>(steps_));
  }

  void merge(const probe& other) override {
    const auto& o = dynamic_cast<const coupling_probe&>(other);
    deviation_.merge(o.deviation_);
    within_bound_.merge(o.within_bound_);
    sampling_.merge(o.sampling_);
    capped_steps_ += o.capped_steps_;
    num_agents_ = std::max(num_agents_, o.num_agents_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(ci_scalar("deviation", deviation_));
    out.scalars.push_back(plain_scalar("deviation_max", deviation_.max()));
    out.scalars.push_back(plain_scalar("capped_steps", static_cast<double>(capped_steps_)));
    out.scalars.push_back(ci_scalar("within_bound", within_bound_));
    out.scalars.push_back(
        plain_scalar("sampling_sd_sqrt_n", sampling_.stddev() * std::sqrt(num_agents_)));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(deviation_.count())));
    return out;
  }

 private:
  static constexpr double k_deviation_cap = 10.0;

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

// --- proof_audit ------------------------------------------------------------

/// §5's proof of Theorem 4.3, replayed pathwise by core::proof_auditor on
/// the infinite engine: `min_slack` is the worst slack of the potential
/// bounds and the combined regret inequality over every step of every
/// replication (>= 0 means each inequality held on every path).  Applies
/// only from the uniform start inside the theorem regime
/// (dynamics_params::satisfies_theorem_conditions).
class proof_audit_probe final : public probe {
 public:
  [[nodiscard]] std::string name() const override { return "proof_audit"; }

  [[nodiscard]] std::unique_ptr<probe> clone() const override {
    return std::make_unique<proof_audit_probe>();
  }

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
    if (auditor_ != nullptr) worst_slack_.add(auditor_->worst_slack());
  }

  void merge(const probe& other) override {
    worst_slack_.merge(dynamic_cast<const proof_audit_probe&>(other).worst_slack_);
  }

  [[nodiscard]] probe_report report() const override {
    probe_report out;
    out.probe = name();
    out.scalars.push_back(plain_scalar("min_slack", worst_slack_.min()));
    out.scalars.push_back(
        plain_scalar("replications", static_cast<double>(worst_slack_.count())));
    return out;
  }

 private:
  running_stats worst_slack_;               // per-replication worst slack
  std::unique_ptr<proof_auditor> auditor_;  // this replication's, when it applies
};

// --- probe spec grammar -----------------------------------------------------

double parse_probe_number(std::string_view spec, std::string_view text) {
  const std::optional<double> parsed = parse_full_double(text);
  if (!parsed) {
    throw std::invalid_argument{"probe '" + std::string{spec} + "': bad numeric value '" +
                                std::string{trim_ascii(text)} + "'"};
  }
  return *parsed;
}

/// Parses `key=value, key=value` into pairs; values are numbers.
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
      out.emplace_back(std::string{trim_ascii(item.substr(0, eq))},
                       parse_probe_number(spec, item.substr(eq + 1)));
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
std::unique_ptr<probe> make_plain(double /*arg*/) {
  return std::make_unique<P>();
}

template <class P>
std::unique_ptr<probe> make_with_arg(double arg) {
  return std::make_unique<P>(arg);
}

/// One row per probe make_probe knows, in the order the error lists them:
/// the name, its one numeric argument's key and default (an empty key: it
/// takes no arguments), and the factory.
struct probe_entry {
  std::string_view name;
  std::string_view arg_key;
  double arg_default;
  std::unique_ptr<probe> (*make)(double arg);
};

constexpr std::array<probe_entry, 13> k_probes{{
    {"regret", {}, 0.0, make_plain<regret_probe>},
    {"trajectory", {}, 0.0, make_plain<trajectory_probe>},
    {"hitting_time", "eps", 0.1, make_with_arg<hitting_time_probe>},
    {"popularity_floor", "floor", 0.0, make_with_arg<popularity_floor_probe>},
    {"final_histogram", {}, 0.0, make_plain<final_histogram_probe>},
    {"recovery", "eps", 0.5, make_with_arg<recovery_probe>},
    {"concentration", {}, 0.0, make_plain<concentration_probe>},
    {"coupling", {}, 0.0, make_plain<coupling_probe>},
    {"proof_audit", {}, 0.0, make_plain<proof_audit_probe>},
    {"message_cost", {}, 0.0, make_plain<message_cost_probe>},
    {"commit_latency", {}, 0.0, make_plain<commit_latency_probe>},
    {"adoption", {}, 0.0, make_plain<adoption_probe>},
    {"partition_divergence", "eps", 0.1, make_with_arg<partition_divergence_probe>},
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
      return entry.make(0.0);
    }
    return entry.make(only_arg(trimmed, parsed, entry.arg_key, entry.arg_default));
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
