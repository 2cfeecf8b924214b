#include "reference_event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace fairswap::net::oracle {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&](SimTime) { order.push_back(3); });
  q.schedule_at(10, [&](SimTime) { order.push_back(1); });
  q.schedule_at(20, [&](SimTime) { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(7, [&order, i](SimTime) { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClockAdvancesToEventTime) {
  EventQueue q;
  q.schedule_at(42, [](SimTime now) { EXPECT_EQ(now, 42u); });
  EXPECT_EQ(q.now(), 0u);
  q.run_all();
  EXPECT_EQ(q.now(), 42u);
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  SimTime fired_at = 0;
  q.schedule_at(10, [&](SimTime) {
    q.schedule_after(5, [&](SimTime now) { fired_at = now; });
  });
  q.run_all();
  EXPECT_EQ(fired_at, 15u);
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue q;
  SimTime fired_at = 999;
  q.schedule_at(10, [&](SimTime) {
    q.schedule_at(3, [&](SimTime now) { fired_at = now; });  // in the past
  });
  q.run_all();
  EXPECT_EQ(fired_at, 10u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(5, [&](SimTime) { fired.push_back(5); });
  q.schedule_at(10, [&](SimTime) { fired.push_back(10); });
  q.schedule_at(11, [&](SimTime) { fired.push_back(11); });
  EXPECT_EQ(q.run_until(10), 2u);
  EXPECT_EQ(fired, (std::vector<int>{5, 10}));
  EXPECT_EQ(q.now(), 10u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockEvenWithoutEvents) {
  EventQueue q;
  EXPECT_EQ(q.run_until(100), 0u);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunNextOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void(SimTime)> tick = [&](SimTime) {
    if (++chain < 5) q.schedule_after(1, tick);
  };
  q.schedule_at(0, tick);
  EXPECT_EQ(q.run_all(), 5u);
  EXPECT_EQ(q.now(), 4u);
}

TEST(EventQueue, RunUntilNeverRewindsTheClock) {
  EventQueue q;
  EXPECT_EQ(q.run_until(50), 0u);
  int fired = 0;
  q.schedule_at(60, [&](SimTime) { ++fired; });
  // An earlier horizon fires nothing and leaves the clock where it was.
  EXPECT_EQ(q.run_until(20), 0u);
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_until(60), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ClampedPastEventQueuesBehindSameTimePeers) {
  // A past-scheduled event clamps to now with a fresh sequence number, so
  // it fires after events already waiting at the current time — clamping
  // must not let a latecomer jump the FIFO.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&](SimTime) {
    order.push_back(0);
    q.schedule_at(3, [&](SimTime) { order.push_back(2); });  // clamps to 10
  });
  q.schedule_at(10, [&](SimTime) { order.push_back(1); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, SameTimeEventScheduledFromCallbackFiresWithinRunUntil) {
  // run_until(t) must also run work an event at t schedules for t itself —
  // the flow simulator relies on this when a completion at the horizon
  // triggers a same-tick cascade.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&](SimTime now) {
    order.push_back(0);
    q.schedule_at(now, [&](SimTime) { order.push_back(1); });
  });
  EXPECT_EQ(q.run_until(10), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunNextStepsOneSimultaneousEventAtATime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&](SimTime) { order.push_back(0); });
  q.schedule_at(5, [&](SimTime) { order.push_back(1); });
  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(q.now(), 5u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, FifoHoldsAcrossInterleavedScheduling) {
  // Events at the same time fire in schedule order even when scheduling
  // interleaves with other times.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&](SimTime) { order.push_back(50); });
  q.schedule_at(3, [&](SimTime) { order.push_back(30); });
  q.schedule_at(5, [&](SimTime) { order.push_back(51); });
  q.schedule_at(3, [&](SimTime) { order.push_back(31); });
  q.schedule_at(5, [&](SimTime) { order.push_back(52); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{30, 31, 50, 51, 52}));
}

TEST(EventQueue, PendingCountsScheduledEvents) {
  EventQueue q;
  q.schedule_at(1, [](SimTime) {});
  q.schedule_at(2, [](SimTime) {});
  EXPECT_EQ(q.pending(), 2u);
  q.run_next();
  EXPECT_EQ(q.pending(), 1u);
}

}  // namespace
}  // namespace fairswap::net::oracle
