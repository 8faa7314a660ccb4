#pragma once

/// \file simulation.h
/// A deterministic discrete-event network simulator.
///
/// The paper's converse reading (§1, §6) is that the social dynamics is a
/// distributed, essentially memoryless implementation of MWU "perhaps
/// appropriate for low-power devices in distributed settings such as sensor
/// networks or the internet-of-things".  This module is the substrate that
/// claim is tested on: nodes exchanging small messages over lossy,
/// latency-ridden asynchronous links, with crash/restart fault injection —
/// ad hoc (crash_node/partition calls) or scripted (a fault_schedule of
/// timed partitions, churn waves, and per-link-class degradations executed
/// as first-class events in the same (time, seq) queue).
///
/// Determinism: events are ordered by (time, sequence number) in a bucketed
/// queue (netsim/event_queue.h) whose order does not depend on its bucket
/// sizing; every node owns an RNG stream derived from (seed, 2^32 + node
/// id) and the network owns its own sub-2^32 stream for latency/drops —
/// disjoint for every 32-bit node id — so runs are reproducible
/// bit-for-bit.  Scheduled fault
/// events are enqueued before any node runs, so they carry the smallest
/// sequence numbers and dispatch before same-time node events, in schedule
/// order; fraction-based waves draw from a dedicated fault stream.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "netsim/event_queue.h"
#include "netsim/trace.h"
#include "support/rng.h"

namespace sgl::netsim {

/// A small fixed-layout message.  Protocols define `kind` and the operand
/// meanings; `wire_bytes` approximates the on-air cost of one message
/// (src + dst + kind + two operands).
struct message {
  node_id src = 0;
  node_id dst = 0;
  std::int32_t kind = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;

  static constexpr std::uint64_t wire_bytes = 28;
};

/// Per-link behaviour: delivery latency = base + Exponential(jitter_mean)
/// (jitter_mean = 0 disables jitter), and i.i.d. Bernoulli loss.
struct link_model {
  double base_latency = 1.0;
  double jitter_mean = 0.0;
  double drop_probability = 0.0;

  /// Throws field_error (support/field_error.h) naming the first field out
  /// of range: "base_latency" or "jitter_mean" below 0, "drop_probability"
  /// outside [0, 1].
  void validate() const;
};

/// Which links a degrade action covers, relative to the action's `targets`
/// node set: every link, links within one side of the set (both endpoints
/// in it or both outside), links crossing the set boundary, or links
/// touching a listed node at either endpoint.
enum class link_class : std::uint8_t { all, intra, cross, nodes };

/// One scripted fault.  Times are simulated seconds; `until < 0` means
/// "never" where a window is optional (degrade) and is rejected by
/// validate() where the window is the point (partition auto-heals).
struct fault_action {
  enum class kind : std::uint8_t { partition, crash_wave, restart_wave, degrade };

  kind which = kind::partition;
  double at = 0.0;     ///< activation time
  double until = -1.0; ///< end time (partition heal / degrade restore)

  /// partition: side A.  crash_wave/restart_wave: explicit victims (used
  /// when `fraction` is unset).  degrade: the link-class reference set.
  std::vector<node_id> targets;

  /// crash_wave: each alive node crashes i.i.d. with this probability;
  /// restart_wave: each crashed node restarts with it.  < 0 = unset (use
  /// `targets`; an unset restart_wave with empty targets restarts every
  /// crashed node).
  double fraction = -1.0;

  link_class degrade_class = link_class::all;  ///< degrade only
  link_model link;                             ///< degrade override model
};

/// A declarative nemesis schedule, validated against the node count and
/// expanded into queue events at start().  Empty schedules are free: no
/// events, no extra RNG draws, bit-identical traces to a run without one.
struct fault_schedule {
  std::vector<fault_action> actions;

  [[nodiscard]] bool empty() const noexcept { return actions.empty(); }

  /// The one check of a schedule's shape.  Throws field_error on: negative
  /// times, a window with until <= at, a partition without a window or
  /// with an empty/complete side, overlapping partition windows, target
  /// ids >= num_nodes, fractions outside [0,1] or where they do not apply,
  /// a window on a wave (a point event), a wave with both targets and
  /// fraction or a crash wave with neither, a degrade of a non-`all` link
  /// class without targets, or an invalid degrade link model.  The field
  /// is `N.name` for action N, named as the scenario layer's `faults.N.*`
  /// keys name it (`at`, `until`, `targets`, `fraction`, `link_class`,
  /// `base_latency`, `jitter_mean`, `drop_probability`); the message reads
  /// "fault_schedule: action N: name reason" and prints no time, because
  /// the caller may have converted its times into seconds.
  void validate(std::size_t num_nodes) const;
};

/// Counters exposed by simulation::stats().
struct network_stats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;   ///< lost in transit or dst crashed
  std::uint64_t timers_fired = 0;

  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return messages_sent * message::wire_bytes;
  }
};

class simulation;

/// The capability surface a node sees during a callback.
class context {
 public:
  /// Simulated time now.
  [[nodiscard]] double now() const noexcept;
  /// The node being called.
  [[nodiscard]] node_id self() const noexcept;
  /// This node's private RNG stream.
  [[nodiscard]] rng& gen() noexcept;
  /// Sends to `dst` (must be a topology neighbour when a topology is set;
  /// throws std::logic_error otherwise).  src is filled in automatically.
  void send(node_id dst, message msg);
  /// Schedules on_timer(timer_id) after `delay` (> 0) simulated seconds.
  void set_timer(double delay, std::int32_t timer_id);
  /// Appends an application-level trace record stamped (now, self) when a
  /// recorder is attached; free otherwise.  Protocol code uses it for the
  /// commit/adopt marks the offline invariant checker replays.
  void record(trace_kind kind, std::int32_t detail, std::int64_t a, std::int64_t b);
  /// Neighbours under the topology: num_neighbors() of them, the k-th
  /// (k < num_neighbors()) in ascending id order.  Without a topology they
  /// are all other nodes, mapped without a table: k -> k < self ? k : k + 1.
  [[nodiscard]] std::size_t num_neighbors() const noexcept;
  [[nodiscard]] node_id neighbor(std::size_t k) const noexcept;
  [[nodiscard]] std::size_t num_nodes() const noexcept;

 private:
  friend class simulation;
  context(simulation& sim, node_id self) noexcept : sim_{sim}, self_{self} {}
  simulation& sim_;
  node_id self_;
};

/// Base class for protocol participants.
class node {
 public:
  virtual ~node() = default;
  /// Called at simulation start and on restart after a crash.
  virtual void on_start(context& ctx) = 0;
  virtual void on_message(context& ctx, const message& msg) = 0;
  virtual void on_timer(context& ctx, std::int32_t timer_id) = 0;
};

class simulation {
 public:
  /// `recycled` lends the storage of a finished run's queue (see
  /// release_queue()); its events are dropped.
  explicit simulation(std::uint64_t seed, event_queue recycled = event_queue{});

  simulation(const simulation&) = delete;
  simulation& operator=(const simulation&) = delete;

  /// Adds a node before start(); returns its id (dense, starting at 0).
  node_id add_node(std::unique_ptr<node> n);

  /// Restricts connectivity (borrowed; vertex count must match node count
  /// at start(), which caches its CSR arrays).  Without a topology every
  /// node can reach every other.
  void set_topology(const graph::graph* topology) noexcept { topology_ = topology; }

  void set_link_model(const link_model& links);

  /// Installs a scripted fault schedule, validated and expanded into queue
  /// events at start().  Must be called before start().
  void set_fault_schedule(fault_schedule schedule);

  /// Attaches a structured event recorder (borrowed; nullptr detaches).
  /// Recording costs one branch per event when detached — the recorder-off
  /// path is the same code as before recorders existed.
  void set_trace_recorder(trace_recorder* recorder) noexcept { recorder_ = recorder; }

  /// Calls on_start on every node.  Must be called exactly once, after all
  /// add_node calls.
  void start();

  /// Processes events until the queue is empty or the next event is later
  /// than `t_end`; the clock then advances to exactly t_end.
  void run_until(double t_end);

  /// Processes a single event; returns false when the queue is empty.
  bool step_one();

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] const network_stats& stats() const noexcept { return stats_; }

  /// FNV-1a fold of every dispatched event (time, kind, destination,
  /// payload).  Two runs that dispatched the same events in the same order
  /// have equal hashes, so replays / thread-count / engine-reuse invariance
  /// can be asserted on the full event trace without recording it.
  /// Scheduled fault events fold in too (kind code 2 + schedule index), so
  /// the hash also pins *when* every scripted fault fired.
  [[nodiscard]] std::uint64_t trace_hash() const noexcept { return trace_hash_; }

  /// Fault injection.  Crashing drops the node's queued timers and any
  /// messages delivered while down; restart re-runs on_start.  Both are
  /// documented no-ops when the node is already in the requested state:
  /// crash_node on a crashed node does not bump the epoch again, and
  /// restart_node on an alive node does not re-run on_start (tested in
  /// tests/netsim_test.cpp).
  void crash_node(node_id id);
  void restart_node(node_id id);
  [[nodiscard]] bool is_alive(node_id id) const;

  /// Network partition: messages crossing between `group_a` and its
  /// complement are dropped at delivery time (in-flight ones included).
  /// Nodes keep running and can talk within their side.  heal_partition()
  /// restores full connectivity.  Throws std::logic_error when already
  /// partitioned — overlapping cuts would silently overwrite the side
  /// assignment; heal first.
  void partition(std::span<const node_id> group_a);
  void heal_partition();
  [[nodiscard]] bool is_partitioned() const noexcept { return partitioned_; }

  /// Side assignment of the most recent partition (kept after heal, so
  /// post-heal re-convergence across the former cut stays measurable).
  [[nodiscard]] bool has_partition_sides() const noexcept {
    return side_a_.size() == nodes_.size() && !side_a_.empty();
  }
  /// True when `id` was on side A of the most recent partition.  Only
  /// meaningful while has_partition_sides().
  [[nodiscard]] bool on_side_a(node_id id) const;

  /// Direct access for inspection/tests (caller downcasts).
  [[nodiscard]] node& get_node(node_id id);
  [[nodiscard]] const node& get_node(node_id id) const;

  /// Ends the simulation and hands its event queue's storage to the next
  /// one, so a replication loop does not reallocate it.
  [[nodiscard]] event_queue release_queue() && { return std::move(queue_); }

 private:
  friend class context;

  /// One activated degrade override: the link model plus a per-node
  /// membership bitmap precomputed from the action's targets.
  struct link_override {
    link_class which = link_class::all;
    link_model link;
    std::vector<bool> in_set;
    bool active = false;
  };

  void dispatch(const event& ev);
  void dispatch_fault(const event& ev);
  void trace(std::uint64_t word) noexcept {
    trace_hash_ ^= word;
    trace_hash_ *= 0x100000001b3ULL;
  }
  void record(const trace_record& rec) {
    if (recorder_ != nullptr) recorder_->append(rec);
  }
  void enqueue_message(node_id src, node_id dst, const message& msg);
  void enqueue_timer(node_id dst, double delay, std::int32_t timer_id);
  void require_started(bool started, const char* who) const {
    if (started_ != started) [[unlikely]] lifecycle_error(started, who);
  }
  [[noreturn]] static void lifecycle_error(bool started, const char* who);
  /// The link model governing src->dst right now: the most recently
  /// activated matching override, else the base model.
  [[nodiscard]] const link_model& resolve_link(node_id src, node_id dst) const noexcept;

  std::vector<std::unique_ptr<node>> nodes_;
  std::vector<rng> node_gens_;
  std::vector<std::uint8_t> alive_;  ///< bytes, not bits: read on every dispatch
  std::vector<bool> side_a_;  ///< partition membership (meaningful when partitioned_)
  bool partitioned_ = false;
  std::vector<std::uint64_t> epoch_;  ///< bumped on crash; stale timers ignored
  const graph::graph* topology_ = nullptr;
  /// The topology's CSR arrays, cached by start(); nullptr = fully mixed.
  const std::size_t* offsets_ = nullptr;
  const node_id* adjacency_ = nullptr;
  link_model links_;
  rng net_gen_;
  rng fault_gen_;  ///< fraction-based wave draws (stream 0xfa17)
  fault_schedule schedule_;
  std::vector<link_override> overrides_;   ///< one per degrade action
  std::vector<std::int32_t> override_order_;  ///< activation order, most recent last
  event_queue queue_;
  double now_ = 0.0;
  bool started_ = false;
  network_stats stats_;
  trace_recorder* recorder_ = nullptr;  ///< borrowed; nullptr = recording off
  std::uint64_t trace_hash_ = 0xcbf29ce484222325ULL;  ///< FNV-1a offset basis
  std::uint64_t seed_;
};

// --- context (inline: every send and neighbour draw goes through it) ---------

inline double context::now() const noexcept { return sim_.now_; }
inline node_id context::self() const noexcept { return self_; }
inline rng& context::gen() noexcept { return sim_.node_gens_[self_]; }
inline std::size_t context::num_nodes() const noexcept { return sim_.nodes_.size(); }

inline std::size_t context::num_neighbors() const noexcept {
  if (sim_.offsets_ != nullptr) return sim_.offsets_[self_ + 1] - sim_.offsets_[self_];
  return sim_.nodes_.size() - 1;
}

inline node_id context::neighbor(std::size_t k) const noexcept {
  if (sim_.offsets_ != nullptr) return sim_.adjacency_[sim_.offsets_[self_] + k];
  return static_cast<node_id>(k < self_ ? k : k + 1);
}

inline void context::send(node_id dst, message msg) {
  msg.src = self_;
  msg.dst = dst;
  sim_.enqueue_message(self_, dst, msg);
}

inline void context::set_timer(double delay, std::int32_t timer_id) {
  sim_.enqueue_timer(self_, delay, timer_id);
}

inline void context::record(trace_kind kind, std::int32_t detail, std::int64_t a,
                            std::int64_t b) {
  sim_.record({sim_.now_, kind, self_, 0, detail, a, b});
}

}  // namespace sgl::netsim
