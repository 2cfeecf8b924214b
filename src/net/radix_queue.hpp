// A monotone bucket queue (radix heap) for the flow layer's events.
//
// FlowSimulator schedules every event at or after the current simulated
// time, and the current time never passes an unpopped event, so the keys
// it pushes never undercut the last popped one. A radix heap exploits
// exactly that: bucket i holds the events whose time differs from the
// last popped time `base_` first in bit i-1, pushes are O(1), and each
// event is redistributed into a lower bucket at most 64 times over its
// life. Compared with a binary heap of boxed callbacks it touches memory
// sequentially and allocates only when a bucket grows, not per event.
//
// Events with equal times pop in push order: buckets are appended to and
// redistributed front to back, so each bucket stays in push order. That
// reproduces the (time, scheduling order) firing order of the generic
// callback queue the flow layer used to run on, which is kept as the
// test-only oracle in tests/net/reference_event_queue.hpp
// (tests/net/radix_queue_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <limits>
#include <vector>

#include "engine/sim_time.hpp"

namespace fairswap::net {

/// Radix heap over `Event`s that carry an `engine::SimTime when`.
template <typename Event>
class RadixQueue {
 public:
  RadixQueue() { earliest_.fill(kNever); }

  /// Queues `ev`. `ev.when` must not precede the last popped event's time
  /// (callers clamp to their clock, which never runs behind it).
  void push(const Event& ev) {
    place(ev);
    ++size_;
  }

  /// Pops the earliest event into `out` if its time is <= `until`;
  /// returns false (and pops nothing) otherwise or when empty.
  bool pop_due(engine::SimTime until, Event& out) {
    if (head_ == buckets_[0].size() && !refill(until)) return false;
    if (base_ > until) return false;
    out = buckets_[0][head_++];
    --size_;
    return true;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Drops every event and rewinds the time base to 0.
  void clear() {
    for (auto& bucket : buckets_) bucket.clear();
    earliest_.fill(kNever);
    head_ = 0;
    size_ = 0;
    base_ = 0;
  }

 private:
  static constexpr std::size_t kBuckets = 65;
  static constexpr std::size_t kKeptCapacity = 1024;
  static constexpr engine::SimTime kNever =
      std::numeric_limits<engine::SimTime>::max();

  [[nodiscard]] std::size_t bucket_of(engine::SimTime when) const noexcept {
    return static_cast<std::size_t>(std::bit_width(when ^ base_));
  }

  void place(const Event& ev) {
    const std::size_t i = bucket_of(ev.when);
    buckets_[i].push_back(ev);
    earliest_[i] = std::min(earliest_[i], ev.when);
  }

  /// Bucket 0 is spent: moves the time base up to the earliest queued
  /// event, if that is due by `until`, and spreads its bucket (all of
  /// whose events share the bits above it with the new base) downwards.
  bool refill(engine::SimTime until) {
    buckets_[0].clear();
    head_ = 0;
    std::size_t i = 1;
    while (i < kBuckets && buckets_[i].empty()) ++i;
    if (i == kBuckets) return false;
    if (earliest_[i] > until) return false;
    base_ = earliest_[i];
    earliest_[i] = kNever;
    std::vector<Event>& from = buckets_[i];
    for (const Event& ev : from) place(ev);
    // Every bucket would otherwise keep its high-water capacity, which
    // sums to several times the queue's size; large spent ones are freed.
    if (from.capacity() > kKeptCapacity) {
      std::vector<Event>().swap(from);
    } else {
      from.clear();
    }
    return true;
  }

  std::array<std::vector<Event>, kBuckets> buckets_;
  /// Earliest time queued in each bucket above 0 (kNever when empty).
  std::array<engine::SimTime, kBuckets> earliest_;
  std::size_t head_{0};  ///< next event to pop from buckets_[0]
  std::size_t size_{0};
  engine::SimTime base_{0};  ///< time of the last popped event
};

}  // namespace fairswap::net
