// The benchmark's workloads: each is one fixed experiment shape whose
// inputs are generated from the seed alone. README.md records why each
// exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/experiment.hpp"

namespace perfbench {

/// The seed whose output fingerprint is pinned per workload.
inline constexpr std::uint64_t kPinnedSeed = 1;

struct Workload {
  std::string_view name;
  /// Builds one pass's experiment for `seed`.
  fairswap::core::ExperimentConfig (*make)(std::uint64_t seed);
  /// FNV fingerprint of totals, per-node income and counters at
  /// kPinnedSeed. A change that alters results fails the pin.
  std::uint64_t pinned_fingerprint;
};

/// The workload named `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace perfbench
