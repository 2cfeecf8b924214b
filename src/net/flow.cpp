#include "net/flow.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace fairswap::net {

LinkId FairShareNetwork::add_link(double capacity) {
  // Written to reject NaN too: no NaN link could ever saturate, so
  // allocate() would never freeze its flows.
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("link capacity must be >= 0");
  }
  const LinkId id = static_cast<LinkId>(capacity_.size());
  capacity_.push_back(capacity);
  link_flows_.emplace_back();
  loaded_pos_.push_back(0);
  stamp_.push_back(0);
  saturated_.push_back(0);
  ever_saturated_.push_back(0);
  load_.push_back(0);
  return id;
}

FlowId FairShareNetwork::add_flow(std::span<const LinkId> links,
                                  double rate_cap) {
  if (links.empty() && rate_cap == kUncapped) {
    throw std::invalid_argument("a flow needs links or a finite rate cap");
  }
  for (const LinkId l : links) {
    if (l >= capacity_.size()) throw std::out_of_range("unknown link id");
  }
  FlowId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<FlowId>(flows_.size());
    flows_.emplace_back();
    frozen_.push_back(0);
    if (id % 64 == 0) active_bits_.push_back(0);
  }
  Flow& flow = flows_[id];
  flow.links.assign(links.begin(), links.end());
  std::sort(flow.links.begin(), flow.links.end());
  flow.links.erase(std::unique(flow.links.begin(), flow.links.end()),
                   flow.links.end());
  for (const LinkId l : flow.links) {
    std::vector<FlowId>& crossing = link_flows_[l];
    if (crossing.empty()) {
      loaded_pos_[l] = static_cast<std::uint32_t>(loaded_links_.size());
      loaded_links_.push_back(l);
    }
    crossing.push_back(id);
  }
  flow.cap = rate_cap;
  flow.rate = 0.0;
  if (rate_cap != kUncapped) ++capped_count_;
  active_bits_[id / 64] |= std::uint64_t{1} << (id % 64);
  ++active_count_;
  return id;
}

void FairShareNetwork::remove_flow(FlowId flow) {
  if (!is_active(flow)) throw std::invalid_argument("flow is not active");
  Flow& f = flows_[flow];
  for (const LinkId l : f.links) {
    std::vector<FlowId>& crossing = link_flows_[l];
    *std::find(crossing.begin(), crossing.end(), flow) = crossing.back();
    crossing.pop_back();
    if (crossing.empty()) {
      const LinkId moved = loaded_links_.back();
      loaded_links_[loaded_pos_[l]] = moved;
      loaded_pos_[moved] = loaded_pos_[l];
      loaded_links_.pop_back();
    }
  }
  if (f.cap != kUncapped) --capped_count_;
  f.rate = 0.0;
  active_bits_[flow / 64] &= ~(std::uint64_t{1} << (flow % 64));
  --active_count_;
  free_slots_.push_back(flow);
}

void FairShareNetwork::clear_flows() {
  flows_.clear();
  free_slots_.clear();
  active_bits_.clear();
  active_count_ = 0;
  capped_count_ = 0;
  for (const LinkId l : loaded_links_) link_flows_[l].clear();
  loaded_links_.clear();
  frozen_.clear();
  std::fill(saturated_.begin(), saturated_.end(), 0);
  std::fill(ever_saturated_.begin(), ever_saturated_.end(), 0);
  ever_saturated_count_ = 0;
}

void FairShareNetwork::allocate() {
  // Reset the working state of every loaded link (the links the active
  // flows cross) and collect the capped flows.
  ++epoch_;
  live_.clear();
  for (const LinkId l : loaded_links_) {
    stamp_[l] = epoch_;
    saturated_[l] = 0;
    load_[l] = static_cast<std::uint32_t>(link_flows_[l].size());
    live_.push_back(LiveLink{capacity_[l], l, 0});
  }
  capped_.clear();
  if (capped_count_ > 0) {
    for_each_active([&](FlowId f) {
      if (flows_[f].cap != kUncapped) capped_.push_back(f);
    });
  }
  std::fill(frozen_.begin(), frozen_.end(), 0);
  std::size_t unfrozen = active_count_;
  double level = 0.0;
  double delta = 0.0;  // the previous round's increment (none yet)

  // Settles `flow` at `rate` and takes it off every link it crosses.
  const auto freeze = [&](FlowId flow, double rate) {
    flows_[flow].rate = rate;
    frozen_[flow] = 1;
    --unfrozen;
    for (const LinkId l : flows_[flow].links) --load_[l];
  };

  while (unfrozen > 0) {
    // One pass over the links still carrying load. It first charges each
    // link for the previous round's increment (every crossing flow rose
    // by delta; links that saturated then carry no load any more and are
    // dropped here; in the first round prev_load is 0 and the charge is
    // an exact no-op), then takes the fair residual share per crossing
    // flow, tracking its minimum and every link that attains it.
    double min_share = std::numeric_limits<double>::infinity();
    saturating_.clear();
    std::size_t kept = 0;
    for (LiveLink w : live_) {
      const std::uint32_t load = load_[w.link];
      if (load == 0) continue;
      w.residual -= delta * static_cast<double>(w.prev_load);
      if (w.residual < 0.0) w.residual = 0.0;
      w.prev_load = load;
      live_[kept++] = w;
      const double share = w.residual / static_cast<double>(load);
      if (share < min_share) {
        min_share = share;
        saturating_.clear();
        saturating_.push_back(w.link);
      } else if (share == min_share) {
        saturating_.push_back(w.link);
      }
    }
    live_.resize(kept);

    // The uniform rate increment every unfrozen flow can still take: the
    // tightest of (a) that minimum share, (b) distance to any unfrozen
    // flow's own cap.
    delta = min_share;
    kept = 0;
    for (const FlowId f : capped_) {
      if (frozen_[f]) continue;
      capped_[kept++] = f;
      delta = std::min(delta, flows_[f].cap - level);
    }
    capped_.resize(kept);
    // Clamping below can leave a residual rounding hair below zero; the
    // offending link is then this round's exact argmin and saturates now.
    if (delta < 0.0) delta = 0.0;

    // Saturate the links whose share is <= delta *by identity* — delta
    // is the very quotient those shares were, so no epsilon can make two
    // orderings disagree. Every share is >= min_share, so those are
    // exactly the argmin links, unless a cap undercut them all.
    if (!(min_share <= delta)) saturating_.clear();
    for (const LinkId l : saturating_) {
      saturated_[l] = 1;
      if (!ever_saturated_[l]) {
        ever_saturated_[l] = 1;
        ++ever_saturated_count_;
      }
    }

    const double prev_level = level;
    level += delta;

    // Freeze: a flow capped within this increment settles at exactly its
    // cap; a flow crossing a just-saturated link settles at the new water
    // level. At least one of the two happens (delta's argmin is a loaded
    // link or a cap), so every round shrinks `unfrozen`. Links saturated
    // in earlier rounds carry no unfrozen flow any more, so only this
    // round's are walked; the order of freezing changes no rate or load.
    for (const FlowId f : capped_) {
      // <= not ==: within a round the min-ness of delta makes them
      // equivalent, but a rounded-up level in an earlier round could
      // strand a cap strictly below it forever under exact equality.
      const double cap = flows_[f].cap;
      if (cap - prev_level <= delta) freeze(f, cap);
    }
    for (const LinkId l : saturating_) {
      for (const FlowId f : link_flows_[l]) {
        if (!frozen_[f]) freeze(f, level);
      }
    }
  }
}

}  // namespace fairswap::net
