// Test-only oracle for net::FairShareNetwork: the progressive-filling
// allocator the production one replaced, unchanged. The production
// allocator must reproduce its rates and saturation state bit for bit
// (flow_allocator_test.cpp); it is not linked into the library.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/flow.hpp"

namespace fairswap::net::oracle {

/// FairShareNetwork as it was before the incidence-driven rewrite, kept
/// verbatim as the differential oracle: plain progressive filling that
/// rescans every touched link and every active flow each round.
class ReferenceFairShareNetwork {
 public:
  static constexpr double kUncapped = FairShareNetwork::kUncapped;

  /// Adds a link of the given capacity (>= 0) and returns its id. Links
  /// are never removed.
  LinkId add_link(double capacity);

  /// Adds a flow crossing `links` (duplicates are deduplicated), with an
  /// optional per-flow rate cap. A flow must cross at least one link or
  /// carry a finite cap, otherwise no bottleneck could ever freeze it.
  /// Returns the flow's slot id. The new flow's rate is 0 until the next
  /// allocate().
  FlowId add_flow(std::span<const LinkId> links, double rate_cap = kUncapped);

  /// Removes an active flow; its slot is recycled by a later add_flow.
  void remove_flow(FlowId flow);

  /// Recomputes the max-min fair rate of every active flow.
  void allocate();

  /// Drops all flows and clears saturation history; links stay.
  void clear_flows();

  [[nodiscard]] double rate(FlowId flow) const { return flows_[flow].rate; }
  [[nodiscard]] bool is_active(FlowId flow) const {
    return flow < flows_.size() && flows_[flow].active;
  }
  [[nodiscard]] const std::vector<LinkId>& flow_links(FlowId flow) const {
    return flows_[flow].links;
  }
  /// Active flow slots in ascending order — the canonical iteration order
  /// everything deterministic hangs off.
  [[nodiscard]] const std::vector<FlowId>& active_flows() const noexcept {
    return active_;
  }

  [[nodiscard]] std::size_t link_count() const noexcept {
    return capacity_.size();
  }
  [[nodiscard]] double link_capacity(LinkId link) const {
    return capacity_[link];
  }
  /// True if `link` was a binding bottleneck in the last allocate(). The
  /// epoch stamp guards against stale state: a link whose flows have all
  /// since been removed is not saturated, it is idle.
  [[nodiscard]] bool link_saturated(LinkId link) const {
    return stamp_[link] == epoch_ && saturated_[link] != 0;
  }
  /// Number of links that were saturated in *any* allocate() since the
  /// last clear_flows() — the congestion-footprint statistic.
  [[nodiscard]] std::size_t ever_saturated_count() const noexcept {
    return ever_saturated_count_;
  }

 private:
  struct Flow {
    std::vector<LinkId> links;  ///< sorted, unique
    double cap{kUncapped};
    double rate{0.0};
    bool active{false};
  };

  std::vector<double> capacity_;
  std::vector<Flow> flows_;
  std::vector<FlowId> free_slots_;
  std::vector<FlowId> active_;  ///< sorted ascending

  // allocate() scratch, sized to link_count and reused across calls; only
  // links crossed by active flows are touched (epoch-stamped).
  std::vector<double> residual_;
  std::vector<std::uint32_t> load_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::uint8_t> ever_saturated_;
  std::vector<LinkId> touched_;
  std::vector<std::uint8_t> frozen_;  ///< parallel to active_
  std::uint32_t epoch_{0};
  std::size_t ever_saturated_count_{0};
};

}  // namespace fairswap::net::oracle
