#include "reference_event_queue.hpp"

#include <utility>

namespace fairswap::net::oracle {

void EventQueue::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  heap_.push(Event{when, next_seq_++, std::move(cb)});
}

void EventQueue::schedule_after(SimTime delay, Callback cb) {
  schedule_at(now_ + delay, std::move(cb));
}

bool EventQueue::run_next() {
  if (heap_.empty()) return false;
  // priority_queue::top returns const&; move via const_cast is the
  // standard workaround, safe because we pop immediately.
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  now_ = ev.when;
  ev.cb(now_);
  return true;
}

std::size_t EventQueue::run_until(SimTime until) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.top().when <= until) {
    run_next();
    ++fired;
  }
  if (now_ < until) now_ = until;
  return fired;
}

std::size_t EventQueue::run_all() {
  std::size_t fired = 0;
  while (run_next()) ++fired;
  return fired;
}

}  // namespace fairswap::net::oracle
