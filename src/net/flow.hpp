// Max-min fair bandwidth sharing over capacity links — the flow-level
// counterpart of the counter-based Simulation ("make time and congestion
// real", ROADMAP).
//
// FairShareNetwork holds a fixed set of capacity links and a changing set
// of flows, each flow crossing a subset of the links. allocate() computes
// the max-min fair rate vector by progressive filling (water-filling):
// every unfrozen flow's rate rises uniformly until some link saturates or
// some flow hits its own rate cap; flows bottlenecked there freeze at the
// current water level and the rest keep rising. Each call is a full
// recompute over every active flow, driven by a link->flow incidence
// that add_flow/remove_flow keep current: a round touches only the links
// that still carry unfrozen flows, and freezes only the flows on links
// that saturated in that round. The result is *insertion-order invariant
// at full floating-point precision*: all per-link arithmetic runs over
// aggregate loads (integer flow counts), the water-level increment is a
// min (which no visiting order can change), and bottlenecks are detected
// by exact identity with that increment rather than epsilon comparisons
// — two networks holding the same flow set allocate bit-identical rates
// regardless of the order the flows were added
// (tests/net/flow_allocator_test.cpp, which also fuzzes this allocator
// against the plain progressive-filling reference, bit for bit).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "engine/sim_time.hpp"

namespace fairswap::net {

/// Index of a capacity link inside a FairShareNetwork.
using LinkId = std::uint32_t;

/// Slot index of a flow inside a FairShareNetwork. Slots are recycled
/// after remove_flow; FlowSimulator layers generation counters on top.
using FlowId = std::uint32_t;

/// Flow-level simulation parameters (SimulationConfig::flow).
struct FlowConfig {
  /// Capacity of each overlay routing-table edge, in chunks per tick.
  double link_capacity{0.05};
  /// Per-node uplink / downlink capacity in chunks per tick; 0 selects
  /// the default of 4x link_capacity (a node serves several table edges).
  double up_capacity{0.0};
  double down_capacity{0.0};
  /// Ticks between consecutive file arrivals (file i arrives at time
  /// i * interarrival).
  engine::SimTime interarrival{50};
  /// Flows still unfinished this many ticks after start are abandoned and
  /// counted as timed out; 0 disables timeouts. Timeouts are a temporal
  /// statistic only — accounting already happened at request time.
  engine::SimTime timeout{0};
  /// Record flow-completion times in a bounded-memory percentile sketch
  /// (common/stream_stats, relative error <= 1/(2*64)) instead of the
  /// exact per-flow sample vector. Off by default so existing runs keep
  /// exact percentiles; heavy-traffic runs switch it on so FCT memory is
  /// O(occupied bins), not O(completed flows). The mean stays exact
  /// either way (integer tick sum).
  bool bounded_fct{false};

  friend bool operator==(const FlowConfig&, const FlowConfig&) = default;
};

/// Capacity links + active flows + the max-min fair allocator.
class FairShareNetwork {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

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
    return flow < flows_.size() &&
           ((active_bits_[flow / 64] >> (flow % 64)) & 1u) != 0;
  }
  [[nodiscard]] const std::vector<LinkId>& flow_links(FlowId flow) const {
    return flows_[flow].links;
  }
  [[nodiscard]] std::size_t active_count() const noexcept {
    return active_count_;
  }
  /// Calls `fn(FlowId)` for every active flow in ascending slot order —
  /// the canonical iteration order everything deterministic hangs off.
  /// `fn` must not add or remove flows.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (std::size_t w = 0; w < active_bits_.size(); ++w) {
      for (std::uint64_t bits = active_bits_[w]; bits != 0;
           bits &= bits - 1) {
        fn(static_cast<FlowId>(w * 64 + std::countr_zero(bits)));
      }
    }
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
  };

  /// allocate()'s working state of a link that still carries load.
  struct LiveLink {
    double residual{0.0};
    LinkId link{0};
    std::uint32_t prev_load{0};  ///< load at the start of the last round
  };

  std::vector<double> capacity_;
  std::vector<Flow> flows_;
  std::vector<FlowId> free_slots_;
  std::vector<std::uint64_t> active_bits_;  ///< bit f set iff f is active
  std::size_t active_count_{0};
  std::size_t capped_count_{0};  ///< active flows with a finite cap

  // Link -> flow incidence, kept up to date by add_flow / remove_flow:
  // the active flows crossing each link (in no particular order) and the
  // links crossed by at least one, with each one's position in that list.
  std::vector<std::vector<FlowId>> link_flows_;
  std::vector<LinkId> loaded_links_;
  std::vector<std::uint32_t> loaded_pos_;

  // Saturation state. A link takes part in an allocate() iff it is loaded
  // then; the epoch stamp marks the links of the latest call.
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::uint8_t> ever_saturated_;
  std::uint32_t epoch_{0};
  std::size_t ever_saturated_count_{0};

  // allocate() scratch, reused across calls.
  std::vector<std::uint32_t> load_;      ///< unfrozen flows, by LinkId
  std::vector<std::uint8_t> frozen_;     ///< by FlowId
  std::vector<LiveLink> live_;           ///< links still carrying load
  std::vector<LinkId> saturating_;       ///< this round's argmin links
  std::vector<FlowId> capped_;           ///< unfrozen capped flows
};

}  // namespace fairswap::net
