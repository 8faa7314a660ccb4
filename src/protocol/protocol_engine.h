#pragma once

/// \file protocol_engine.h
/// The gossip protocol as a first-class dynamics_engine.
///
/// PRs 1–4 made everything in the repo — probes, scenario I/O, sweeps, the
/// CLI, the bench gate — drive engines solely through the
/// core::dynamics_engine interface.  This adapter plugs the asynchronous
/// netsim/gossip port of §2.1 into that interface: step(t) advances the
/// discrete-event simulation one protocol round (round_interval simulated
/// seconds), the environment's sampled R^t is posted to a shared signal
/// board every node senses during that round, and popularity() is read off
/// the empirical distribution of the nodes' single-integer states — the
/// paper's "weights as popularity" reading, now measurable by every probe.
///
/// Determinism (tested in tests/protocol_engine_test.cpp):
///   * the simulation seed is the first word drawn from the harness's
///     per-replication process stream (rng::from_stream(seed, 2r+1)), so a
///     replication's trajectory is a pure function of (seed, replication) —
///     independent of thread count, scheduling, and engine reuse;
///   * per-node / network / churn streams derive from that seed exactly as
///     documented in DESIGN.md "Protocol RNG stream derivation";
///   * reset() discards the simulation; the next step() draws a fresh seed
///     from its stream, so reset()-reuse is bit-identical to
///     reconstruction.
///
/// The engine also implements core::net_instrumented, so the message_cost /
/// commit_latency / adoption probes can account for wire traffic, commit
/// spells, and churn.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dynamics_engine.h"
#include "core/net_metrics.h"
#include "core/params.h"
#include "graph/graph.h"
#include "netsim/simulation.h"
#include "protocol/gossip_learner.h"
#include "support/rng.h"

namespace sgl::protocol {

/// Everything a protocol run needs: the dynamics parameters, the
/// protocol's knobs, fault injection and trace recording.
struct engine_config {
  core::dynamics_params dynamics;  ///< m, μ, α, β
  protocol_config protocol;        ///< round cadence, links, retries, churn, mode

  /// Scripted nemesis schedule (times in simulated seconds), installed on
  /// every replication's simulation.  Empty = no scheduled faults; validated
  /// against the node count at engine construction.
  netsim::fault_schedule faults;

  /// Attach a trace_recorder to every replication's simulation (capacity 0
  /// = keep everything, > 0 = ring of the most recent records).  Off by
  /// default; the recorder-off path costs nothing.
  bool record_trace = false;
  std::size_t trace_capacity = 0;
};

class protocol_engine final : public core::dynamics_engine,
                              public core::net_instrumented,
                              public core::partition_instrumented {
 public:
  /// `topology` restricts gossip partners (shared so generated graphs stay
  /// alive across every engine a factory builds); nullptr = fully mixed.
  /// Throws std::invalid_argument on invalid dynamics, protocol config or
  /// fault schedule (field_error for those), num_nodes == 0, or a topology
  /// whose vertex count differs from num_nodes.
  protocol_engine(const engine_config& config, std::size_t num_nodes,
                  std::shared_ptr<const graph::graph> topology = nullptr);

  void reset() override;
  void step(std::span<const std::uint8_t> rewards, rng& gen) override;
  [[nodiscard]] std::span<const double> popularity() const noexcept override {
    return popularity_;
  }
  [[nodiscard]] std::span<const std::uint64_t> adopter_counts() const noexcept override {
    return counts_;
  }
  [[nodiscard]] std::uint64_t empty_steps() const noexcept override { return empty_steps_; }
  [[nodiscard]] std::uint64_t steps() const noexcept override { return steps_; }

  [[nodiscard]] core::net_metrics sample_net() const override;
  [[nodiscard]] core::partition_sample sample_partition() const override;

  /// The live simulation (nullptr before the first step after a reset);
  /// exposed for determinism tests (trace_hash) and inspection.
  [[nodiscard]] const netsim::simulation* simulation() const noexcept {
    return sim_.get();
  }

  /// The replication's trace recorder (nullptr unless config.record_trace
  /// and a step has run since the last reset).
  [[nodiscard]] const netsim::trace_recorder* recorder() const noexcept {
    return recorder_.get();
  }

 private:
  /// Builds and starts the simulation, seeding it from the next word of
  /// the harness's process stream.
  void build(rng& gen);

  engine_config config_;
  std::size_t num_nodes_;
  std::shared_ptr<const graph::graph> topology_;
  posted_signals board_;

  std::unique_ptr<netsim::simulation> sim_;
  netsim::event_queue spare_queue_;  ///< storage between reset() and the next build()
  std::unique_ptr<netsim::trace_recorder> recorder_;  ///< owned; sim_ borrows it
  std::vector<gossip_learner*> learners_;  ///< borrowed from sim_
  rng churn_gen_;

  std::vector<double> popularity_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t steps_ = 0;
  std::uint64_t empty_steps_ = 0;
  std::uint64_t alive_ = 0;
  std::uint64_t committed_ = 0;

  // Commit-latency bookkeeping: the round each node's current uncommitted
  // spell started (0 = uncommitted since the beginning).
  std::vector<std::uint64_t> uncommitted_since_;
  std::vector<std::uint8_t> was_committed_;
  double commit_latency_rounds_ = 0.0;
  std::uint64_t commit_events_ = 0;
};

}  // namespace sgl::protocol
