#include "netsim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sgl::netsim {
namespace {

constexpr std::size_t k_min_buckets = 64;  ///< one bitmap word
/// Bucket numbers below this convert to double and back exactly.
constexpr double k_max_bucket = 0x1p52;
/// Strain an overflow push adds (a heap push, then a heap pop later).
constexpr std::uint64_t k_overflow_strain = 16;
/// Average strain per push above which the ring is re-sized.
constexpr std::uint64_t k_strain_per_push = 4;

}  // namespace

event_queue::event_queue() { reset_ring(k_min_buckets); }

void event_queue::reset_ring(std::size_t count) {
  heads_.assign(count, k_nil);
  occupied_.assign(count / 64, 0);
  mask_ = count - 1;
  current_.clear();
  current_pos_ = 0;
  active_ = false;
}

void event_queue::clear() {
  if (heads_.empty()) {
    reset_ring(k_min_buckets);  // a moved-from queue
  } else {
    std::fill(heads_.begin(), heads_.end(), k_nil);
    std::fill(occupied_.begin(), occupied_.end(), 0);
    current_.clear();
    current_pos_ = 0;
    active_ = false;
  }
  slab_.clear();
  times_.clear();
  next_.clear();
  free_ = k_nil;
  overflow_.clear();
  cur_ = 0;
  last_pop_ = 0.0;
  size_ = 0;
  ring_size_ = 0;
  next_seq_ = 0;
  strain_ = 0;
  pushes_ = 0;
}

void event_queue::judge() {
  // Crowded buckets, many overflow pushes or long empty scans mean the
  // width no longer fits the load.
  if (size_ > heads_.size() || strain_ > k_strain_per_push * pushes_) rebuild();
  strain_ = 0;
  pushes_ = 0;
}

std::uint32_t event_queue::grow_slab() {
  slab_.emplace_back();
  times_.push_back(0.0);
  next_.push_back(k_nil);
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void event_queue::place_slow(std::uint32_t index, double time) {
  if (!(time * inv_width_ < static_cast<double>(cur_ + heads_.size()))) {
    overflow_push(index);
    strain_ += k_overflow_strain;
    return;
  }
  // Into the current bucket, which is already sorted: after every pending
  // event of the same or an earlier time (this one has the largest seq).
  auto at = current_.end();
  const auto first = current_.begin() + static_cast<std::ptrdiff_t>(current_pos_);
  while (at != first && (at - 1)->time > time) {
    --at;
    ++strain_;
  }
  current_.insert(at, pending{time, index});
}

std::uint64_t event_queue::first_occupied() {
  const std::uint64_t start = cur_ & mask_;
  std::uint64_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  const std::uint64_t word_mask = occupied_.size() - 1;
  while (bits == 0) {
    // Wrapping back onto the start word reads its low bits unmasked: those
    // buckets are the window's last ones.
    word = (word + 1) & word_mask;
    bits = occupied_[word];
    ++strain_;
  }
  const std::uint64_t slot = (word << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
  return cur_ + ((slot - start) & mask_);
}

void event_queue::advance(std::uint64_t bucket) {
  cur_ = bucket;
  active_ = false;
  // The window grew at its far end, past the current bucket: overflow
  // events that now fall inside join those buckets' lists.
  const double end = static_cast<double>(cur_ + heads_.size());
  while (!overflow_.empty()) {
    const double x = times_[overflow_.front()] * inv_width_;
    if (!(x < end)) break;
    link(overflow_pop(), bucket_from(x));
  }
}

bool event_queue::take_next(double t_end, event& out) {
  if (ring_size_ == 0) {
    if (overflow_.empty() || times_[overflow_.front()] > t_end) return false;
    const double x = times_[overflow_.front()] * inv_width_;
    if (!(x < k_max_bucket)) {
      release(overflow_pop(), out);  // past bucket numbering
      last_pop_ = out.time;
      return true;
    }
    // Skip the empty stretch: the window restarts at the earliest event.
    advance(bucket_from(x));
  }
  // Sort the next occupied bucket into current_; if its earliest event is
  // not due, drop the copy and leave the queue as it was.
  const std::uint64_t bucket = first_occupied();
  const std::uint64_t slot = bucket & mask_;
  current_.clear();
  current_pos_ = 0;
  for (std::uint32_t at = heads_[slot]; at != k_nil; at = next_[at]) {
    // Insertion sort (a bucket holds a few events).  The list runs newest
    // first, so `at` is older than all placed so far: before equal times.
    const pending item{times_[at], at};
    std::size_t hole = current_.size();
    current_.push_back(item);
    for (; hole > 0 && current_[hole - 1].time >= item.time; --hole) {
      current_[hole] = current_[hole - 1];
    }
    current_[hole] = item;
  }
  if (current_.front().time > t_end) {
    current_.clear();
    return false;
  }
  const std::uint64_t count = current_.size();
  strain_ += count * count / 4;
  heads_[slot] = k_nil;
  occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  ring_size_ -= count;
  if (bucket != cur_) advance(bucket);
  active_ = true;
  current_pos_ = 1;
  last_pop_ = current_.front().time;
  release(current_.front().index, out);
  return true;
}

bool event_queue::later(std::uint32_t x, std::uint32_t y) const noexcept {
  if (times_[x] != times_[y]) return times_[x] > times_[y];
  return slab_[x].seq > slab_[y].seq;
}

void event_queue::overflow_push(std::uint32_t index) {
  overflow_.push_back(index);
  std::push_heap(overflow_.begin(), overflow_.end(),
                 [this](std::uint32_t x, std::uint32_t y) { return later(x, y); });
}

std::uint32_t event_queue::overflow_pop() {
  std::pop_heap(overflow_.begin(), overflow_.end(),
                [this](std::uint32_t x, std::uint32_t y) { return later(x, y); });
  const std::uint32_t index = overflow_.back();
  overflow_.pop_back();
  return index;
}

void event_queue::rebuild() {
  strain_ = 0;
  pushes_ = 0;
  // Every queued event, sorted by (time, seq).
  order_.clear();
  for (std::size_t i = current_pos_; i < current_.size(); ++i) order_.push_back(current_[i].index);
  for (const std::uint32_t head : heads_) {
    for (std::uint32_t at = head; at != k_nil; at = next_[at]) order_.push_back(at);
  }
  order_.insert(order_.end(), overflow_.begin(), overflow_.end());
  const std::size_t n = order_.size();
  if (n == 0) return;
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t x, std::uint32_t y) { return later(y, x); });

  // Twice the live events, so a bucket holds about one at a time.  The
  // window starts at the last pop (or the earliest event, if earlier) and
  // spans twice the distance from there to the 7/8 quantile: it covers
  // the near events with room to spare (a timer re-armed a round ahead
  // lands inside), while a few far-future ones cannot stretch it.
  const std::size_t count = std::max(k_min_buckets, std::bit_ceil(2 * n));
  const double from = std::min(times_[order_.front()], last_pop_);
  std::size_t quantile = n - 1 - (n - 1) / 8;
  while (quantile + 1 < n && times_[order_[quantile]] <= from) ++quantile;
  const double ahead = times_[order_[quantile]] - from;
  if (ahead > 0.0 && std::isfinite(ahead)) {
    // Floor: bucket numbers of times near `from` stay below 2^40.
    width_ = std::max(2.0 * ahead / static_cast<double>(count),
                      std::max(std::abs(from), 1.0) * 0x1p-40);
    inv_width_ = 1.0 / width_;
  }
  reset_ring(count);
  const double x0 = from * inv_width_;
  cur_ = x0 > 0.0 && x0 < k_max_bucket ? static_cast<std::uint64_t>(x0) : 0;
  ring_size_ = 0;
  overflow_.clear();
  const double end = static_cast<double>(cur_ + count);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = times_[order_[i]] * inv_width_;
    if (!(x < end)) {
      // Past the window; the sorted tail is already a heap.
      overflow_.assign(order_.begin() + static_cast<std::ptrdiff_t>(i), order_.end());
      break;
    }
    link(order_[i], bucket_from(x));
  }
}

}  // namespace sgl::netsim
