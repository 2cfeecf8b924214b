// Test-only oracle for net::RadixQueue: a generic discrete-event queue
// (std::function callbacks in a binary heap). The flow layer ran on it
// when the FlowPin hashes were recorded, so RadixQueue must fire events
// in exactly its (time, scheduling order) sequence
// (radix_queue_test.cpp). It is not linked into the library.
//
// EventQueue is thread-compatible, not thread-safe: it carries no lock,
// and every instance is owned by one test.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "engine/sim_time.hpp"

namespace fairswap::net::oracle {

using engine::SimTime;

/// A deterministic discrete-event executor. Events scheduled for the same
/// time fire in scheduling order (stable via sequence numbers), which keeps
/// runs reproducible.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime now)>;

  /// Schedules `cb` at absolute time `when`. Scheduling in the past fires
  /// at the current time (immediately on the next run).
  void schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` `delay` ticks after the current time.
  void schedule_after(SimTime delay, Callback cb);

  /// Pops and executes the earliest event; returns false when empty.
  bool run_next();

  /// Runs all events with time <= `until`; returns how many fired.
  std::size_t run_until(SimTime until);

  /// Runs until the queue is empty; returns how many fired.
  std::size_t run_all();

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  SimTime now_{0};
  std::uint64_t next_seq_{0};
};

}  // namespace fairswap::net::oracle
