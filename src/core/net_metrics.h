#pragma once

/// \file net_metrics.h
/// The narrow bridge between the probe layer and network-backed engines.
///
/// Protocol-grade measurements — message and byte cost, commit latency,
/// adoption under churn, divergence across a partition — only make sense
/// for engines that run over a simulated network
/// (protocol/protocol_engine.h).  Instead of making the core probe layer
/// depend on the protocol layer, an engine that can account for its
/// network opts in by implementing net_instrumented; the protocol probes
/// (core/probe.cpp) discover the capability with a dynamic_cast and report
/// nothing for engines without it.

#include <cstdint>
#include <vector>

namespace sgl::core {

/// A cumulative snapshot of a replication's network activity, taken after
/// any step.  Counters restart from zero at every engine reset() (a fresh
/// replication), so end-of-replication snapshots cover exactly one
/// replication.
struct net_metrics {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  ///< lost in transit or dst down
  std::uint64_t timers_fired = 0;
  std::uint64_t bytes_sent = 0;

  std::uint64_t nodes = 0;      ///< population size N
  std::uint64_t alive = 0;      ///< nodes not crashed after the last step
  std::uint64_t committed = 0;  ///< alive nodes holding a choice

  /// Sum over commit events of the rounds the node spent uncommitted
  /// before that commit, and the number of such events.  Their ratio is
  /// the mean commit latency in rounds.
  double commit_latency_rounds = 0.0;
  std::uint64_t commit_events = 0;
};

/// A per-side view of the population under (or after) a network partition,
/// taken after any step.  `has_sides` stays true after the cut heals — the
/// side assignment of the most recent partition persists so post-heal
/// re-convergence across the former cut is measurable.
struct partition_sample {
  bool partitioned = false;  ///< a cut is active right now
  bool has_sides = false;    ///< a side assignment exists (current or former)
  std::vector<double> side_a_popularity;  ///< empirical dist. among side-A adopters
  std::vector<double> side_b_popularity;  ///< likewise for the complement
  std::uint64_t side_a_committed = 0;     ///< alive committed nodes on side A
  std::uint64_t side_b_committed = 0;
};

/// Implemented by engines that run over a simulated network (the gossip
/// protocol engine).  Purely observational: calling either sampler must not
/// change engine state or consume randomness.
class net_instrumented {
 public:
  virtual ~net_instrumented() = default;
  [[nodiscard]] virtual net_metrics sample_net() const = 0;
  [[nodiscard]] virtual partition_sample sample_partition() const = 0;
};

}  // namespace sgl::core
