// Link latency modelling.
//
// Latencies are deterministic per unordered node pair: a base propagation
// delay plus a pair-specific jitter derived by hashing (seed, lo, hi).
// Deterministic latencies keep latency runs reproducible without storing
// an O(n^2) latency matrix.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "engine/sim_time.hpp"
#include "overlay/topology.hpp"

namespace fairswap::net {

/// Latency parameters in simulated time ticks (think: milliseconds).
struct LatencyConfig {
  engine::SimTime base{10};    ///< minimum one-way delay
  engine::SimTime jitter{20};  ///< per-pair additional delay in [0, jitter)
  std::uint64_t seed{0};       ///< keyed into the per-pair hash
};

/// Deterministic symmetric per-pair latency.
class LatencyModel {
 public:
  explicit LatencyModel(LatencyConfig config) noexcept : config_(config) {}

  /// One-way delay between a and b; symmetric, stable across calls.
  [[nodiscard]] engine::SimTime latency(overlay::NodeIndex a,
                                        overlay::NodeIndex b) const noexcept {
    if (config_.jitter == 0) return config_.base;
    const overlay::NodeIndex lo = a < b ? a : b;
    const overlay::NodeIndex hi = a < b ? b : a;
    SplitMix64 h(config_.seed ^ (static_cast<std::uint64_t>(lo) << 32 | hi));
    return config_.base + h.next() % config_.jitter;
  }

  [[nodiscard]] const LatencyConfig& config() const noexcept { return config_; }

 private:
  LatencyConfig config_;
};

}  // namespace fairswap::net
