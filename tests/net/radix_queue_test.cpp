// RadixQueue must fire events in exactly oracle::EventQueue's order —
// time first, then scheduling order — under the flow layer's usage:
// pushes never before the clock, pushes from inside a pop at the current
// tick, and pops bounded by run-until horizons that leave later events
// queued.
#include "net/radix_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "reference_event_queue.hpp"

namespace fairswap::net {
namespace {

struct Item {
  engine::SimTime when;
  std::uint32_t id;
};

/// The follow-up (if any) that firing event `id` at `now` schedules: at
/// the same tick, a few ticks on, or far out. A fixed function of the id,
/// so both queues see the same pushes as long as they pop alike.
std::optional<engine::SimTime> follow_up(std::uint32_t id,
                                         engine::SimTime now) {
  std::uint64_t h = (id + 1) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 29;
  switch (h % 10) {
    case 0:
    case 1:
      return now;
    case 2:
    case 3:
    case 4:
      return now + (h >> 12) % 4;
    case 5:
      return now + (h >> 20) % (1u << 20);
    default:
      return std::nullopt;
  }
}

/// oracle::EventQueue driven the way FlowSimulator drove it.
class ReferenceSide {
 public:
  void push(engine::SimTime when) {
    const std::uint32_t id = next_id_++;
    queue_.schedule_at(when, [this, id](engine::SimTime now) {
      order_.push_back(id);
      if (const auto next = follow_up(id, now)) push(*next);
    });
  }
  void run_until(engine::SimTime until) { queue_.run_until(until); }
  void run_all() { queue_.run_all(); }
  [[nodiscard]] const std::vector<std::uint32_t>& order() const {
    return order_;
  }

 private:
  oracle::EventQueue queue_;
  std::uint32_t next_id_{0};
  std::vector<std::uint32_t> order_;
};

/// RadixQueue driven the way FlowSimulator drives it.
class RadixSide {
 public:
  void push(engine::SimTime when) {
    queue_.push(Item{std::max(when, now_), next_id_++});
  }
  void run_until(engine::SimTime until) {
    fire_due(until);
    now_ = std::max(now_, until);
  }
  void run_all() { fire_due(std::numeric_limits<engine::SimTime>::max()); }
  [[nodiscard]] const std::vector<std::uint32_t>& order() const {
    return order_;
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

 private:
  void fire_due(engine::SimTime until) {
    Item item{};
    while (queue_.pop_due(until, item)) {
      now_ = item.when;
      order_.push_back(item.id);
      if (const auto next = follow_up(item.id, now_)) push(*next);
    }
  }

  RadixQueue<Item> queue_;
  engine::SimTime now_{0};
  std::uint32_t next_id_{0};
  std::vector<std::uint32_t> order_;
};

TEST(RadixQueue, FiresInEventQueueOrder) {
  Rng rng(0x5ADu);
  for (int iter = 0; iter < 50; ++iter) {
    ReferenceSide reference;
    RadixSide radix;
    engine::SimTime clock = 0;
    for (int round = 0; round < 40; ++round) {
      const std::uint64_t pushes = rng.next_below(30);
      for (std::uint64_t i = 0; i < pushes; ++i) {
        // Mostly near the clock (many ties), sometimes far in the future,
        // sometimes behind it (both clamp to the clock).
        const std::uint64_t roll = rng.next_below(6);
        const engine::SimTime when =
            roll == 0   ? clock + rng.next_below(1u << 24)
            : roll == 1 ? clock - std::min<engine::SimTime>(clock, 3)
                        : clock + rng.next_below(8);
        reference.push(when);
        radix.push(when);
      }
      clock += rng.next_below(64);
      reference.run_until(clock);
      radix.run_until(clock);
      ASSERT_EQ(radix.order(), reference.order())
          << "iter " << iter << " round " << round;
    }
    reference.run_all();
    radix.run_all();
    EXPECT_TRUE(radix.empty());
    ASSERT_EQ(radix.order(), reference.order()) << "iter " << iter;
  }
}

TEST(RadixQueue, EqualTimesPopInPushOrderAndHorizonIsInclusive) {
  RadixQueue<Item> q;
  q.push(Item{5, 0});
  q.push(Item{3, 1});
  q.push(Item{5, 2});
  q.push(Item{3, 3});
  Item item{};
  std::vector<std::uint32_t> order;
  while (q.pop_due(4, item)) order.push_back(item.id);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(q.size(), 2u);
  q.push(Item{4, 4});  // after the popped 3s, before the queued 5s
  while (q.pop_due(5, item)) order.push_back(item.id);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 0, 2}));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_due(std::numeric_limits<engine::SimTime>::max(), item));
}

}  // namespace
}  // namespace fairswap::net
