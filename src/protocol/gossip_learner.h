#pragma once

/// \file gossip_learner.h
/// The paper's converse, made executable: the finite-population learning
/// dynamics as a real gossip protocol in which every node stores exactly
/// ONE integer (its current choice) and exchanges two tiny message types.
///
///   round r (every round_interval seconds, per node):
///     with prob. μ   — consider a uniformly random option (self-exploration)
///     otherwise      — SAMPLE_REQ to a uniformly random neighbour
///   on SAMPLE_REQ    — reply SAMPLE_REPLY carrying my current choice
///   on SAMPLE_REPLY  — consider the carried option; if the neighbour was
///                      uncommitted, retry another random neighbour (up to
///                      max_retries — the protocol analogue of popularity
///                      being the distribution among *adopters*), then fall
///                      back to a uniform option
///   consider(j)      — sense the shared signal R^r_j; commit to j with
///                      probability β (good signal) / α (bad); otherwise
///                      sit out (or keep the old choice in sticky mode).
///
/// This is a faithful asynchronous port of §2.1's two-stage dynamics: the
/// popularity vector is never materialized anywhere — it exists only as
/// the empirical distribution of the nodes' single-integer states, exactly
/// the "weights as popularity" reading of the MWU connection.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/params.h"
#include "netsim/simulation.h"

namespace sgl::protocol {

/// The shared signal board: serves the environment's sampled R^t to every
/// node for the duration of the current round, realizing the paper's
/// shared R^t_j inside the asynchronous protocol — every node sensing
/// option j during round r sees the same realization without any global
/// coordination in the protocol itself.  protocol_engine posts each
/// round's row before advancing the simulation.
class posted_signals {
 public:
  explicit posted_signals(std::size_t num_options) : row_(num_options, 0) {}

  void post(std::span<const std::uint8_t> rewards) {
    std::copy(rewards.begin(), rewards.end(), row_.begin());
  }

  [[nodiscard]] std::uint8_t signal(std::size_t option) const { return row_[option]; }
  [[nodiscard]] std::size_t num_options() const noexcept { return row_.size(); }

 private:
  std::vector<std::uint8_t> row_;
};

/// The protocol's knobs: the `protocol.*` key family of the scenario text
/// format, declared once.  scenario_spec::protocol is this struct, the
/// engine runs it, and every gossip_learner keeps a copy.
struct protocol_config {
  double round_interval = 1.0;    ///< simulated seconds per protocol round
  double base_latency = 0.05;     ///< per-message delivery latency
  double jitter_mean = 0.0;       ///< Exponential latency jitter (0 = none)
  double drop_probability = 0.0;  ///< i.i.d. Bernoulli packet loss
  /// Re-asks after an uncommitted reply.  64 bits so the text codec cannot
  /// wrap an out-of-range value; validate() caps it at 2^32 − 1.
  std::uint64_t max_retries = 4;

  /// Per-node, per-round fault injection: an alive node crashes with
  /// probability crash_rate at the round boundary; a crashed node restarts
  /// (rejoining uncommitted, on_start re-run) with probability
  /// restart_rate.
  double crash_rate = 0.0;
  double restart_rate = 0.0;

  bool sticky = false;  ///< keep the previous choice instead of sitting out

  /// Reply with the choice latched at the last round boundary instead of
  /// the live one, so all of a round's samples read the previous round's
  /// state — the synchronous two-stage update of §2.1.  The driver must
  /// call latch() on every node at each round boundary (protocol_engine
  /// does); without latching the protocol is asynchronous within a round.
  bool lockstep = false;

  /// The netsim link model the three link knobs describe.
  [[nodiscard]] netsim::link_model links() const noexcept;

  /// Throws field_error (support/field_error.h) naming the first field out
  /// of range: a link field link_model rejects, round_interval not > 0,
  /// max_retries above 2^32 − 1, crash_rate or restart_rate outside [0, 1].
  void validate() const;

  friend bool operator==(const protocol_config&, const protocol_config&) = default;
};

/// One protocol participant.  State: a single int (plus borrowed config).
/// Nodes start — and restart after a crash — uncommitted, matching the
/// dynamics_engine initial-state contract (nobody committed, uniform
/// popularity).
class gossip_learner final : public netsim::node {
 public:
  static constexpr std::int32_t k_sample_request = 1;
  static constexpr std::int32_t k_sample_reply = 2;
  static constexpr std::int32_t k_round_timer = 7;

  /// `signals` is borrowed and must outlive the simulation.  The dynamics
  /// and the protocol config are copied unchecked: protocol_engine
  /// validates them once, not once per node.
  gossip_learner(const core::dynamics_params& dynamics, const protocol_config& protocol,
                 const posted_signals* signals);

  void on_start(netsim::context& ctx) override;
  void on_message(netsim::context& ctx, const netsim::message& msg) override;
  void on_timer(netsim::context& ctx, std::int32_t timer_id) override;

  /// Current choice; -1 while sitting out.
  [[nodiscard]] std::int32_t choice() const noexcept { return choice_; }

  /// Lockstep support: snapshots the current choice as the one SAMPLE_REQ
  /// replies carry until the next latch (protocol_config::lockstep).
  void latch() noexcept { latched_choice_ = choice_; }

 private:
  void consider(netsim::context& ctx, std::size_t option);
  void send_sample_request(netsim::context& ctx);
  [[nodiscard]] std::uint64_t current_round(const netsim::context& ctx) const noexcept;

  core::dynamics_params dynamics_;
  protocol_config protocol_;
  const posted_signals* signals_;
  std::int32_t choice_ = -1;
  std::int32_t latched_choice_ = -1;
  std::uint32_t retries_left_ = 0;
};

}  // namespace sgl::protocol
