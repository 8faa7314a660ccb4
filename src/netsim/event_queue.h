#pragma once

/// \file event_queue.h
/// netsim's event queue: a bucketed (calendar) priority queue ordered by
/// (time, push order).
///
/// Network latency is `base + Exponential(jitter)` and protocol timers
/// recur every round, so nearly every push lands a short, predictable
/// distance ahead of the last pop.  Time is cut into buckets of one width;
/// a ring of B buckets (B a power of two) covers the window [cur, cur + B)
/// of absolute bucket numbers, and each bucket is an unsorted list of slab
/// indices, so a push is O(1).  The bucket being popped is sorted once by
/// (time, seq) when it becomes current; a push into it is inserted in
/// order.  Events beyond the window (far-future scripted faults) wait in
/// an overflow heap and move into the ring when the window reaches them.
/// A bitmap of occupied buckets lets a pop skip empty stretches a word at
/// a time.
///
/// The order is exact whatever the bucket width: the bucket of a time is
/// floor(time / width), which never decreases as time grows, so an event
/// in an earlier bucket is strictly earlier, and a bucket pops in (time,
/// seq) order.  Width and count only decide speed.  They are re-derived
/// from the queued events (count = 2n rounded up to a power of two, width
/// from the 7/8 quantile of their distance ahead of the last pop) when the
/// queue outgrows the ring or its buckets or overflow get crowded;
/// DESIGN.md "Event queue".
///
/// Events live by value in one slab reused through a free list, so a
/// steady-state push or pop allocates nothing.  clear() keeps the slab,
/// the ring and the width for the next run.

#include <cstdint>
#include <limits>
#include <vector>

namespace sgl::netsim {

using node_id = std::uint32_t;

enum class event_kind : std::uint8_t { deliver, timer, fault };

/// One queued event (48 bytes).  The payload words mean, by kind:
///   deliver: src = sender, tag = message kind, a/b = message operands
///   timer:   tag = timer id, a = the node's epoch when the timer was set
///   fault:   tag = schedule action index, a = 1 at a window's end
struct event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< push order, stamped by event_queue::push
  std::int64_t a = 0;
  std::int64_t b = 0;
  node_id dst = 0;
  node_id src = 0;
  std::int32_t tag = 0;
  event_kind kind = event_kind::deliver;
};
static_assert(sizeof(event) <= 48, "events stay compact");

class event_queue {
 public:
  event_queue();

  /// Queues an event at `time` and returns it, seq stamped and payload
  /// zeroed, for the caller to fill in (the reference lasts until the next
  /// push).  Equal times pop in push order.  Any time is accepted: one
  /// earlier than the last pop still pops in exact order, only slower.
  event& push(double time);

  /// Moves the earliest event into `out` and removes it, when its time is
  /// <= t_end.  Returns false, leaving the queue as it was, when the queue
  /// is empty or the earliest event is later than t_end.
  bool pop_due(double t_end, event& out);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Drops every event and restarts seq at 0.  The slab, the ring and the
  /// bucket width stay, so a rerun of the same workload allocates nothing.
  void clear();

  /// Inspection for tests: ring size, and the events the slab holds
  /// before it has to grow.
  [[nodiscard]] std::size_t bucket_count() const noexcept { return heads_.size(); }
  [[nodiscard]] std::size_t slab_capacity() const noexcept { return slab_.capacity(); }

 private:
  static constexpr std::uint32_t k_nil = std::numeric_limits<std::uint32_t>::max();

  /// An event of the current bucket, its time beside it for the sort.
  struct pending {
    double time;
    std::uint32_t index;
  };

  /// Re-sizes the ring when it is full or the last ring's worth of pushes
  /// strained it; restarts the strain count either way.
  void judge();
  std::uint32_t grow_slab();
  void place(std::uint32_t index, double time);
  void place_slow(std::uint32_t index, double time);
  [[nodiscard]] std::uint64_t bucket_from(double x) const noexcept {
    // An event earlier than the window start joins the start bucket, which
    // is sorted before it pops, so the order stays exact.
    return x < static_cast<double>(cur_) ? cur_ : static_cast<std::uint64_t>(x);
  }
  void link(std::uint32_t index, std::uint64_t bucket) {
    const std::uint64_t slot = bucket & mask_;
    next_[index] = heads_[slot];
    heads_[slot] = index;
    occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++ring_size_;
  }
  void advance(std::uint64_t bucket);
  [[nodiscard]] std::uint64_t first_occupied();
  /// Makes the next bucket current and pops its first event into `out`;
  /// false (the queue untouched) when nothing is due by t_end.
  bool take_next(double t_end, event& out);
  void release(std::uint32_t index, event& out) {
    out = slab_[index];
    next_[index] = free_;
    free_ = index;
    --size_;
  }
  /// x after y in (time, seq): the overflow heap's and the rebuild's order.
  [[nodiscard]] bool later(std::uint32_t x, std::uint32_t y) const noexcept;
  void overflow_push(std::uint32_t index);
  std::uint32_t overflow_pop();
  void rebuild();
  void reset_ring(std::size_t count);

  std::vector<event> slab_;
  /// Each slab slot's time, dense: bucket walks and window tests read
  /// these, not the 48-byte events.
  std::vector<double> times_;
  std::vector<std::uint32_t> next_;   ///< list link per slab slot (or free-list link)
  std::uint32_t free_ = k_nil;        ///< head of the free-slot list
  std::vector<std::uint32_t> heads_;  ///< first slab index per ring bucket
  /// Bucket lists run newest first: a push prepends, and migration or a
  /// rebuild links in (time, seq) order into buckets that hold nothing
  /// newer.  Sorting a list stably by time alone so gives (time, seq).
  std::vector<pending> current_;         ///< the current bucket, sorted
  std::size_t current_pos_ = 0;          ///< next event of current_ to pop
  bool active_ = false;  ///< current_ holds bucket cur_ (pushes there go in order)
  std::vector<std::uint64_t> occupied_;  ///< one bit per ring bucket
  std::vector<std::uint32_t> overflow_;  ///< min-heap on (time, seq)
  std::vector<std::uint32_t> order_;     ///< rebuild scratch
  std::uint64_t mask_ = 0;     ///< bucket_count() - 1
  std::uint64_t cur_ = 0;      ///< absolute bucket number of the window start
  double last_pop_ = 0.0;      ///< a recent pop's time: pushes land ahead of it
  double width_ = 1.0 / 64.0;
  double inv_width_ = 64.0;
  std::size_t size_ = 0;
  std::size_t ring_size_ = 0;  ///< events in bucket lists (not current_)
  std::uint64_t next_seq_ = 0;
  std::uint64_t strain_ = 0;   ///< list steps, overflow pushes and empty words scanned
  std::uint64_t pushes_ = 0;   ///< pushes since strain_ was last judged
};

// --- the event path (inline; everything rarer lives in event_queue.cpp) -----

inline event& event_queue::push(double time) {
  std::uint32_t index = free_;
  if (index != k_nil) [[likely]] {
    free_ = next_[index];
    slab_[index] = event{};
  } else {
    index = grow_slab();
  }
  event& ev = slab_[index];
  ev.time = time;
  ev.seq = next_seq_++;
  times_[index] = time;
  ++size_;
  place(index, time);
  if (size_ > heads_.size() || ++pushes_ >= heads_.size()) [[unlikely]] judge();
  return ev;
}

inline void event_queue::place(std::uint32_t index, double time) {
  const double x = time * inv_width_;
  if (x < static_cast<double>(cur_ + heads_.size())) [[likely]] {
    const std::uint64_t bucket = bucket_from(x);
    if (!active_ || bucket != cur_) [[likely]] {
      link(index, bucket);
      return;
    }
  }
  place_slow(index, time);
}

inline bool event_queue::pop_due(double t_end, event& out) {
  if (current_pos_ < current_.size()) [[likely]] {
    const pending& next = current_[current_pos_];
    if (next.time > t_end) return false;
    ++current_pos_;
    release(next.index, out);
    return true;
  }
  return take_next(t_end, out);
}

}  // namespace sgl::netsim
