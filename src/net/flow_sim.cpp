#include "net/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/stats.hpp"

namespace fairswap::net {

namespace {

/// A flow this close to empty is finished; covers the rounding of
/// tick-quantized completion times.
constexpr double kDoneEps = 1e-9;

}  // namespace

FlowSimulator::FlowSimulator(const overlay::CompiledRouter& router,
                             std::size_t node_count, FlowConfig config)
    : router_(&router), config_(config), node_count_(node_count) {
  if (!(config_.link_capacity > 0.0)) {  // NaN too
    throw std::invalid_argument("flow link_capacity must be positive");
  }
  const double up = config_.up_capacity > 0.0 ? config_.up_capacity
                                              : 4.0 * config_.link_capacity;
  const double down = config_.down_capacity > 0.0
                          ? config_.down_capacity
                          : 4.0 * config_.link_capacity;
  for (std::size_t e = 0; e < router.edge_count(); ++e) {
    net_.add_link(config_.link_capacity);
  }
  for (std::size_t n = 0; n < node_count_; ++n) net_.add_link(up);
  for (std::size_t n = 0; n < node_count_; ++n) net_.add_link(down);
  link_volume_.assign(net_.link_count(), 0.0);
}

overlay::EdgeId FlowSimulator::resolve_edge(overlay::NodeIndex from,
                                            overlay::NodeIndex to) const {
  const auto [begin, end] = router_->node_edge_range(from);
  for (overlay::EdgeId e = begin; e < end; ++e) {
    if (router_->edge_target(e) == to) return e;
  }
  return overlay::kNoEdge;
}

void FlowSimulator::start_chunk(const overlay::Route& route, bool is_upload) {
  if (!route.reached_storer || route.hops() == 0) {
    throw std::invalid_argument(
        "flows exist only for delivered multi-hop chunks");
  }
  const auto edge_links = static_cast<LinkId>(router_->edge_count());
  links_buf_.clear();
  for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
    const overlay::NodeIndex from = route.path[i];
    const overlay::NodeIndex to = route.path[i + 1];
    overlay::EdgeId edge = route.edge(i);
    // The reference walk carries no arena ids; the traversed table entry
    // still exists, so find it in the sender's slab (at most one match).
    if (edge == overlay::kNoEdge) edge = resolve_edge(from, to);
    if (edge != overlay::kNoEdge) links_buf_.push_back(edge);
    // Data direction: downloads stream storer -> originator, so hop i's
    // sender is path[i+1]; uploads stream the other way.
    const overlay::NodeIndex sender = is_upload ? from : to;
    const overlay::NodeIndex receiver = is_upload ? to : from;
    links_buf_.push_back(edge_links + sender);
    links_buf_.push_back(
        static_cast<LinkId>(edge_links + node_count_ + receiver));
  }

  const FlowId flow = net_.add_flow(links_buf_);
  if (flow >= meta_.size()) meta_.resize(flow + 1);
  Meta& m = meta_[flow];
  m.remaining = 1.0;
  m.rate = -1.0;  // forces the next reallocation to schedule it
  m.start = now_;
  m.completion = 0;
  m.timeout =
      config_.timeout > 0 ? schedule(m.start + config_.timeout, flow) : 0;
  ++started_;
  dirty_ = true;
}

std::uint32_t FlowSimulator::schedule(engine::SimTime when, FlowId flow) {
  Meta& m = meta_[flow];
  const std::uint32_t ticket = m.next_ticket;
  // Skip 0 on wrap-around. An event could only be mistaken for a live one
  // if its slot drew 2^32 - 1 further tickets while it was pending.
  m.next_ticket =
      ticket == std::numeric_limits<std::uint32_t>::max() ? 1 : ticket + 1;
  events_.push(Event{std::max(when, now_), flow, ticket});
  return ticket;
}

void FlowSimulator::run_until(engine::SimTime until) {
  Event ev{};
  while (events_.pop_due(until, ev)) {
    now_ = ev.when;
    if (counters_ != nullptr) {
      counters_->bump(telemetry::Counter::kFlowEventsPopped);
    }
    // A stale event (its flow rescheduled or ended) matches neither.
    const Meta& m = meta_[ev.flow];
    if (ev.ticket == m.completion) {
      on_completion_event(ev.flow);
    } else if (ev.ticket == m.timeout) {
      on_timeout_event(ev.flow);
    }
  }
}

void FlowSimulator::progress_to(engine::SimTime t) {
  if (t <= progressed_) return;
  const double dt = static_cast<double>(t - progressed_);
  net_.for_each_active([&](FlowId f) {
    Meta& m = meta_[f];
    m.remaining -= net_.rate(f) * dt;
    if (m.remaining < 0.0) m.remaining = 0.0;
  });
  progressed_ = t;
}

void FlowSimulator::schedule_completion(FlowId flow) {
  const double rate = net_.rate(flow);
  if (rate <= 0.0) return;  // starved; only a timeout can end it
  const double ticks = std::ceil(meta_[flow].remaining / rate);
  if (!(ticks < 1e18)) return;  // effectively starved
  meta_[flow].completion =
      schedule(now_ + static_cast<engine::SimTime>(ticks), flow);
}

void FlowSimulator::reallocate_and_reschedule() {
  const std::size_t saturated_before = net_.ever_saturated_count();
  net_.allocate();
  if (counters_ != nullptr) {
    counters_->bump(telemetry::Counter::kFlowRateRecomputes);
    counters_->bump(telemetry::Counter::kFlowSaturationEpisodes,
                    net_.ever_saturated_count() - saturated_before);
  }
  net_.for_each_active([&](FlowId f) {
    const double rate = net_.rate(f);
    if (rate == meta_[f].rate) return;  // pending event still exact
    meta_[f].rate = rate;
    meta_[f].completion = 0;
    schedule_completion(f);
  });
}

void FlowSimulator::finish_flow(FlowId flow, bool completed) {
  Meta& m = meta_[flow];
  const double transferred = 1.0 - std::max(m.remaining, 0.0);
  for (const LinkId l : net_.flow_links(flow)) link_volume_[l] += transferred;
  if (completed) {
    if (config_.bounded_fct) {
      const engine::SimTime fct = progressed_ - m.start;
      fct_sketch_.add(static_cast<double>(fct));
      fct_ticks_sum_ += fct;
    } else {
      fct_.push_back(progressed_ - m.start);
    }
  } else {
    ++timed_out_;
  }
  makespan_ = std::max(makespan_, progressed_);
  m.completion = 0;  // stales any pending completion/timeout event
  m.timeout = 0;
  net_.remove_flow(flow);
}

void FlowSimulator::on_completion_event(FlowId flow) {
  progress_to(now_);
  // Sweep every flow that is done at this instant, in slot order: their
  // own events (same tick, scheduled later) become stale otherwise.
  finished_buf_.clear();
  net_.for_each_active([&](FlowId f) {
    if (meta_[f].remaining <= kDoneEps) finished_buf_.push_back(f);
  });
  for (const FlowId f : finished_buf_) finish_flow(f, /*completed=*/true);
  if (!finished_buf_.empty()) {
    reallocate_and_reschedule();
  } else {
    // Defensive: rates drifted between scheduling and firing (cannot
    // happen — rate changes stale the ticket) — re-aim rather than stall.
    meta_[flow].completion = 0;
    schedule_completion(flow);
  }
}

void FlowSimulator::on_timeout_event(FlowId flow) {
  progress_to(now_);
  finish_flow(flow, /*completed=*/meta_[flow].remaining <= kDoneEps);
  reallocate_and_reschedule();
}

void FlowSimulator::commit() {
  if (!dirty_) return;
  dirty_ = false;
  progress_to(now_);
  reallocate_and_reschedule();
}

void FlowSimulator::advance_to(engine::SimTime t) {
  commit();
  run_until(t);
  if (now_ < t) now_ = t;
}

void FlowSimulator::drain() {
  commit();
  run_until(std::numeric_limits<engine::SimTime>::max());
  // Starved flows (a zero-capacity link and no timeout) have no pending
  // events; abandon them, in slot order, instead of looping forever.
  if (net_.active_count() == 0) return;
  progress_to(now_);
  finished_buf_.clear();
  net_.for_each_active([&](FlowId f) { finished_buf_.push_back(f); });
  for (const FlowId f : finished_buf_) finish_flow(f, /*completed=*/false);
}

void FlowSimulator::reset() {
  events_.clear();
  now_ = 0;
  net_.clear_flows();
  meta_.clear();
  link_volume_.assign(net_.link_count(), 0.0);
  fct_.clear();
  fct_sketch_ = PercentileSketch{};
  fct_ticks_sum_ = 0;
  finished_buf_.clear();
  progressed_ = 0;
  makespan_ = 0;
  started_ = 0;
  timed_out_ = 0;
  dirty_ = false;
}

FlowReport FlowSimulator::report() const {
  FlowReport r;
  r.started = started_;
  r.completed = config_.bounded_fct ? fct_sketch_.count() : fct_.size();
  r.timed_out = timed_out_;
  r.saturated_links = net_.ever_saturated_count();
  r.makespan = makespan_;
  if (config_.bounded_fct) {
    if (fct_sketch_.count() > 0) {
      r.fct_p50 = fct_sketch_.quantile(0.50);
      r.fct_p90 = fct_sketch_.quantile(0.90);
      r.fct_p99 = fct_sketch_.quantile(0.99);
      r.fct_mean = static_cast<double>(fct_ticks_sum_) /
                   static_cast<double>(fct_sketch_.count());
    }
  } else if (!fct_.empty()) {
    std::vector<double> sorted(fct_.begin(), fct_.end());
    std::sort(sorted.begin(), sorted.end());
    r.fct_p50 = percentile_sorted(sorted, 0.50);
    r.fct_p90 = percentile_sorted(sorted, 0.90);
    r.fct_p99 = percentile_sorted(sorted, 0.99);
    double sum = 0.0;
    for (const double v : sorted) sum += v;
    r.fct_mean = sum / static_cast<double>(sorted.size());
  }
  if (makespan_ > 0) {
    for (LinkId l = 0; l < net_.link_count(); ++l) {
      const double cap = net_.link_capacity(l);
      if (cap <= 0.0) continue;
      r.max_link_utilization =
          std::max(r.max_link_utilization,
                   link_volume_[l] / (cap * static_cast<double>(makespan_)));
    }
  }
  return r;
}

}  // namespace fairswap::net
