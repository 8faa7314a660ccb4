#include "netsim/simulation.h"

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/distributions.h"

namespace sgl::netsim {
namespace {

[[noreturn]] void bad_action(std::size_t index, const std::string& what) {
  throw std::invalid_argument{"fault_schedule: action " + std::to_string(index) + ": " + what};
}

}  // namespace

void link_model::validate() const {
  if (!(base_latency >= 0.0)) throw std::invalid_argument{"link_model: negative latency"};
  if (!(jitter_mean >= 0.0)) throw std::invalid_argument{"link_model: negative jitter"};
  if (!(drop_probability >= 0.0 && drop_probability <= 1.0)) {
    throw std::invalid_argument{"link_model: drop probability outside [0,1]"};
  }
}

void fault_schedule::validate(std::size_t num_nodes) const {
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const fault_action& act = actions[i];
    if (!(act.at >= 0.0)) bad_action(i, "'at' must be >= 0");
    if (act.until >= 0.0 && !(act.until > act.at)) {
      bad_action(i, "'until' (" + std::to_string(act.until) + ") must be > 'at' (" +
                        std::to_string(act.at) + ")");
    }
    for (const node_id id : act.targets) {
      if (id >= num_nodes) {
        bad_action(i, "target id " + std::to_string(id) + " >= num nodes (" +
                          std::to_string(num_nodes) + ")");
      }
    }
    if (act.fraction != -1.0 && !(act.fraction >= 0.0 && act.fraction <= 1.0)) {
      bad_action(i, "'fraction' (" + std::to_string(act.fraction) + ") outside [0,1]");
    }
    switch (act.which) {
      case fault_action::kind::partition: {
        if (act.until < 0.0) bad_action(i, "partition needs 'until' (it heals automatically)");
        if (act.targets.empty()) bad_action(i, "partition needs a non-empty target side");
        if (act.targets.size() >= num_nodes) {
          bad_action(i, "partition side must leave at least one node on the other side");
        }
        if (act.fraction != -1.0) bad_action(i, "partition does not take 'fraction'");
        // Overlapping cuts are ill-defined (netsim supports one cut at a
        // time); catch the conflict here instead of mid-run.
        for (std::size_t j = 0; j < i; ++j) {
          const fault_action& other = actions[j];
          if (other.which != fault_action::kind::partition) continue;
          if (act.at < other.until && other.at < act.until) {
            bad_action(i, "partition window [" + std::to_string(act.at) + ", " +
                              std::to_string(act.until) + ") overlaps action " +
                              std::to_string(j) + "'s window [" + std::to_string(other.at) +
                              ", " + std::to_string(other.until) + ")");
          }
        }
        break;
      }
      case fault_action::kind::crash_wave:
        if (act.until >= 0.0) bad_action(i, "crash_wave is a point event; 'until' not allowed");
        if (act.targets.empty() && act.fraction == -1.0) {
          bad_action(i, "crash_wave needs 'targets' or 'fraction'");
        }
        if (!act.targets.empty() && act.fraction != -1.0) {
          bad_action(i, "crash_wave takes 'targets' or 'fraction', not both");
        }
        break;
      case fault_action::kind::restart_wave:
        // No targets and no fraction = restart every crashed node.
        if (act.until >= 0.0) bad_action(i, "restart_wave is a point event; 'until' not allowed");
        if (!act.targets.empty() && act.fraction != -1.0) {
          bad_action(i, "restart_wave takes 'targets' or 'fraction', not both");
        }
        break;
      case fault_action::kind::degrade:
        if (act.degrade_class != link_class::all && act.targets.empty()) {
          bad_action(i, "degrade with a non-'all' link class needs targets");
        }
        if (act.fraction != -1.0) bad_action(i, "degrade does not take 'fraction'");
        try {
          act.link.validate();
        } catch (const std::invalid_argument& e) {
          bad_action(i, e.what());
        }
        break;
    }
  }
}

// --- context ----------------------------------------------------------------

// --- simulation ---------------------------------------------------------------

simulation::simulation(std::uint64_t seed, event_queue recycled)
    : net_gen_{rng::from_stream(seed, 0xfeedULL)},
      // 0xfa17 sits below 2^32 alongside 0xfeed (network) — disjoint from
      // both it and every node stream (those live above 2^32).
      fault_gen_{rng::from_stream(seed, 0xfa17ULL)},
      queue_{std::move(recycled)},
      seed_{seed} {
  queue_.clear();
}

node_id simulation::add_node(std::unique_ptr<node> n) {
  require_started(false, "add_node");
  if (n == nullptr) throw std::invalid_argument{"simulation::add_node: null node"};
  const node_id id = static_cast<node_id>(nodes_.size());
  nodes_.push_back(std::move(n));
  // Node streams live above 2^32 so they can never collide with the
  // network stream (0xfeed) or any other sub-2^32 auxiliary stream for
  // any 32-bit node id (the old 0x1000 + id base met 0xfeed at id 61165).
  node_gens_.push_back(rng::from_stream(seed_, (1ULL << 32) + id));
  alive_.push_back(1);
  epoch_.push_back(0);
  return id;
}

void simulation::set_link_model(const link_model& links) {
  links.validate();
  links_ = links;
}

void simulation::set_fault_schedule(fault_schedule schedule) {
  require_started(false, "set_fault_schedule");
  schedule_ = std::move(schedule);
}

void simulation::lifecycle_error(bool started, const char* who) {
  throw std::logic_error{std::string{"simulation::"} + who +
                         (started ? ": not started yet" : ": already started")};
}

void simulation::start() {
  require_started(false, "start");
  if (nodes_.empty()) throw std::logic_error{"simulation::start: no nodes"};
  if (topology_ != nullptr && topology_->num_vertices() != nodes_.size()) {
    throw std::invalid_argument{"simulation::start: topology vertex count != node count"};
  }
  if (topology_ != nullptr) {
    offsets_ = topology_->offsets().data();
    adjacency_ = topology_->adjacency().data();
  }
  schedule_.validate(nodes_.size());
  // Expand the schedule before any node runs: fault events take the lowest
  // sequence numbers, so at any tied time they dispatch before node events,
  // in schedule order, and action i's window end precedes action i+1's
  // begin.  An empty schedule pushes nothing — bit-identical to a run
  // without one.
  overrides_.assign(schedule_.actions.size(), link_override{});
  for (std::size_t i = 0; i < schedule_.actions.size(); ++i) {
    const fault_action& act = schedule_.actions[i];
    if (act.which == fault_action::kind::degrade) {
      link_override& ov = overrides_[i];
      ov.which = act.degrade_class;
      ov.link = act.link;
      ov.in_set.assign(nodes_.size(), false);
      for (const node_id id : act.targets) ov.in_set[id] = true;
    }
    event& begin = queue_.push(act.at);
    begin.kind = event_kind::fault;
    begin.tag = static_cast<std::int32_t>(i);
    const bool windowed = act.which == fault_action::kind::partition ||
                          act.which == fault_action::kind::degrade;
    if (windowed && act.until >= 0.0) {
      event& end = queue_.push(act.until);
      end.kind = event_kind::fault;
      end.tag = static_cast<std::int32_t>(i);
      end.a = 1;
    }
  }
  started_ = true;
  for (node_id id = 0; id < nodes_.size(); ++id) {
    context ctx{*this, id};
    nodes_[id]->on_start(ctx);
  }
}

const link_model& simulation::resolve_link(node_id src, node_id dst) const noexcept {
  // Most recently activated matching override wins.
  for (auto it = override_order_.rbegin(); it != override_order_.rend(); ++it) {
    const link_override& ov = overrides_[static_cast<std::size_t>(*it)];
    bool match = false;
    switch (ov.which) {
      case link_class::all: match = true; break;
      case link_class::intra: match = ov.in_set[src] == ov.in_set[dst]; break;
      case link_class::cross: match = ov.in_set[src] != ov.in_set[dst]; break;
      case link_class::nodes: match = ov.in_set[src] || ov.in_set[dst]; break;
    }
    if (match) return ov.link;
  }
  return links_;
}

void simulation::enqueue_message(node_id src, node_id dst, const message& msg) {
  require_started(true, "send");
  if (dst >= nodes_.size()) throw std::out_of_range{"simulation::send: bad destination"};
  if (dst == src) throw std::logic_error{"simulation::send: self-send"};
  // graph::has_edge's binary search, on the arrays start() cached.
  if (offsets_ != nullptr &&
      !graph::graph::row_contains(adjacency_ + offsets_[src], offsets_[src + 1] - offsets_[src],
                                  dst)) {
    throw std::logic_error{"simulation::send: destination is not a neighbour"};
  }
  const link_model& link = override_order_.empty() ? links_ : resolve_link(src, dst);
  ++stats_.messages_sent;
  record({now_, trace_kind::send, src, dst, msg.kind, msg.a, msg.b});
  if (net_gen_.next_bernoulli(link.drop_probability)) {
    ++stats_.messages_dropped;
    record({now_, trace_kind::drop, dst, src, msg.kind,
            static_cast<std::int64_t>(drop_reason::loss), 0});
    return;
  }
  double latency = link.base_latency;
  if (link.jitter_mean > 0.0) {
    latency += sample_exponential(net_gen_, 1.0 / link.jitter_mean);
  }
  event& ev = queue_.push(now_ + latency);
  ev.kind = event_kind::deliver;
  ev.dst = dst;
  ev.src = src;
  ev.tag = msg.kind;
  ev.a = msg.a;
  ev.b = msg.b;
}

void simulation::enqueue_timer(node_id dst, double delay, std::int32_t timer_id) {
  require_started(true, "set_timer");
  if (!(delay > 0.0)) throw std::invalid_argument{"simulation::set_timer: delay must be > 0"};
  event& ev = queue_.push(now_ + delay);
  ev.kind = event_kind::timer;
  ev.dst = dst;
  ev.tag = timer_id;
  ev.a = static_cast<std::int64_t>(epoch_[dst]);
}

void simulation::partition(std::span<const node_id> group_a) {
  if (partitioned_) {
    throw std::logic_error{
        "simulation::partition: already partitioned; heal_partition() first "
        "(overlapping cuts would silently overwrite side assignments)"};
  }
  side_a_.assign(nodes_.size(), false);
  for (const node_id id : group_a) {
    if (id >= nodes_.size()) throw std::out_of_range{"simulation::partition: bad id"};
    side_a_[id] = true;
  }
  partitioned_ = true;
  for (const node_id id : group_a) {
    record({now_, trace_kind::partition, id, 0, 0, 0, 0});
  }
}

void simulation::heal_partition() {
  if (!partitioned_) return;
  partitioned_ = false;
  record({now_, trace_kind::heal, 0, 0, 0, 0, 0});
}

bool simulation::on_side_a(node_id id) const {
  if (id >= nodes_.size()) throw std::out_of_range{"simulation::on_side_a: bad id"};
  return side_a_[id];
}

void simulation::dispatch_fault(const event& ev) {
  const auto index = static_cast<std::size_t>(ev.tag);
  const bool window_end = ev.a != 0;
  const fault_action& act = schedule_.actions[index];
  switch (act.which) {
    case fault_action::kind::partition:
      if (window_end) {
        heal_partition();
      } else {
        partition(act.targets);
      }
      break;
    case fault_action::kind::crash_wave:
      if (act.targets.empty()) {
        // Deterministic regardless of which nodes are alive: one draw per
        // node, applied only to the live ones.
        for (node_id id = 0; id < nodes_.size(); ++id) {
          const bool hit = fault_gen_.next_bernoulli(act.fraction);
          if (hit && alive_[id]) crash_node(id);
        }
      } else {
        for (const node_id id : act.targets) crash_node(id);
      }
      break;
    case fault_action::kind::restart_wave:
      if (!act.targets.empty()) {
        for (const node_id id : act.targets) restart_node(id);
      } else if (act.fraction != -1.0) {
        for (node_id id = 0; id < nodes_.size(); ++id) {
          const bool hit = fault_gen_.next_bernoulli(act.fraction);
          if (hit && !alive_[id]) restart_node(id);
        }
      } else {
        for (node_id id = 0; id < nodes_.size(); ++id) {
          if (!alive_[id]) restart_node(id);
        }
      }
      break;
    case fault_action::kind::degrade:
      if (window_end) {
        overrides_[index].active = false;
        std::erase(override_order_, ev.tag);
        record({now_, trace_kind::restore, 0, 0, ev.tag, 0, 0});
      } else {
        overrides_[index].active = true;
        override_order_.push_back(ev.tag);
        record({now_, trace_kind::degrade, 0, 0, ev.tag, 0, 0});
      }
      break;
  }
}

void simulation::dispatch(const event& ev) {
  now_ = ev.time;
  trace(std::bit_cast<std::uint64_t>(ev.time));
  trace((static_cast<std::uint64_t>(ev.dst) << 8) |
        static_cast<std::uint64_t>(ev.kind));
  if (ev.kind == event_kind::deliver) {
    trace((static_cast<std::uint64_t>(ev.src) << 32) | static_cast<std::uint32_t>(ev.tag));
    trace(static_cast<std::uint64_t>(ev.a));
    trace(static_cast<std::uint64_t>(ev.b));
    if (!alive_[ev.dst]) {
      ++stats_.messages_dropped;
      record({now_, trace_kind::drop, ev.dst, ev.src, ev.tag,
              static_cast<std::int64_t>(drop_reason::dst_crashed), 0});
      return;
    }
    if (partitioned_ && side_a_[ev.src] != side_a_[ev.dst]) {
      ++stats_.messages_dropped;  // crosses the cut
      record({now_, trace_kind::drop, ev.dst, ev.src, ev.tag,
              static_cast<std::int64_t>(drop_reason::partitioned), 0});
      return;
    }
    ++stats_.messages_delivered;
    record({now_, trace_kind::deliver, ev.dst, ev.src, ev.tag, ev.a, ev.b});
    const message msg{ev.src, ev.dst, ev.tag, ev.a, ev.b};
    context ctx{*this, ev.dst};
    nodes_[ev.dst]->on_message(ctx, msg);
  } else if (ev.kind == event_kind::timer) {
    trace(static_cast<std::uint32_t>(ev.tag));
    // Timers set before a crash are stale in the new epoch.
    if (!alive_[ev.dst] || static_cast<std::uint64_t>(ev.a) != epoch_[ev.dst]) return;
    ++stats_.timers_fired;
    context ctx{*this, ev.dst};
    nodes_[ev.dst]->on_timer(ctx, ev.tag);
  } else {
    // Pin *which* scheduled fault fired (and which phase) into the hash,
    // so a replay that re-timed or re-ordered any fault cannot collide.
    trace((static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.tag)) << 1) |
          static_cast<std::uint64_t>(ev.a != 0));
    dispatch_fault(ev);
  }
}

bool simulation::step_one() {
  require_started(true, "step_one");
  event ev;
  if (!queue_.pop_due(std::numeric_limits<double>::infinity(), ev)) return false;
  dispatch(ev);
  return true;
}

void simulation::run_until(double t_end) {
  require_started(true, "run_until");
  if (t_end < now_) throw std::invalid_argument{"simulation::run_until: time moves forward"};
  event ev;
  while (queue_.pop_due(t_end, ev)) dispatch(ev);
  now_ = t_end;
}

void simulation::crash_node(node_id id) {
  if (id >= nodes_.size()) throw std::out_of_range{"simulation::crash_node: bad id"};
  if (!alive_[id]) return;  // documented no-op: epoch bumps exactly once
  alive_[id] = 0;
  ++epoch_[id];
  record({now_, trace_kind::crash, id, 0, 0, 0, 0});
}

void simulation::restart_node(node_id id) {
  require_started(true, "restart_node");
  if (id >= nodes_.size()) throw std::out_of_range{"simulation::restart_node: bad id"};
  if (alive_[id]) return;  // documented no-op: on_start runs exactly once
  alive_[id] = 1;
  record({now_, trace_kind::restart, id, 0, 0, 0, 0});
  context ctx{*this, id};
  nodes_[id]->on_start(ctx);
}

bool simulation::is_alive(node_id id) const {
  if (id >= nodes_.size()) throw std::out_of_range{"simulation::is_alive: bad id"};
  return alive_[id] != 0;
}

node& simulation::get_node(node_id id) {
  if (id >= nodes_.size()) throw std::out_of_range{"simulation::get_node: bad id"};
  return *nodes_[id];
}

const node& simulation::get_node(node_id id) const {
  if (id >= nodes_.size()) throw std::out_of_range{"simulation::get_node: bad id"};
  return *nodes_[id];
}

}  // namespace sgl::netsim
