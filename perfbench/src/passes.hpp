// One pass = one complete run of a workload's experiment, set-up to fold.
//
// The untraced pass is what a user runs: build_topology, the Simulation
// constructor, demand_mut().next() + apply() per file, finish_flows() and
// package_experiment, timed only at those boundaries.
//
// The traced pass (traced.cpp) drives the same pipeline from the
// benchmark's own code through each layer's public calls and times each
// call with its own span. Its outputs must equal the
// untraced pass's, which is what makes its layer split trustworthy.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "outputs.hpp"

namespace perfbench {

struct UntracedPass {
  Outputs out;
  double build_s{0.0};      ///< build_topology
  double construct_s{0.0};  ///< Simulation constructor
  double drive_s{0.0};      ///< every next() + apply()
  double drain_s{0.0};      ///< finish_flows()
  double fold_s{0.0};       ///< package_experiment
  /// Wall time of each apply() call, in microseconds.
  std::vector<double> apply_us;
};

[[nodiscard]] UntracedPass run_untraced(
    const fairswap::core::ExperimentConfig& cfg);

/// Where traced drive time goes. kCore spans the simulation's own
/// bookkeeping between layer calls (per-node counters, totals, sketches).
enum Layer : std::size_t {
  kWorkload,    ///< DemandEngine::next
  kOverlay,     ///< route_batch, or storer_of / next_hop_edge per hop
  kIncentives,  ///< PaymentPolicy::admit + on_delivery (+ on_step_end)
  kAccounting,  ///< Ledger::advance_tick
  kStorage,     ///< ChunkStore::lookup / cache
  kNetStart,    ///< FlowSimulator::start_chunk
  kNetCommit,   ///< FlowSimulator::commit
  kNetAdvance,  ///< FlowSimulator::advance_to
  kCore,
  kLayerCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct TracedPass {
  Outputs out;
  Footprint footprint;
  double build_s{0.0};
  double construct_s{0.0};
  /// Traced drive time: the sum of the file spans, which leave out the
  /// benchmark's own work between files.
  double drive_s{0.0};
  double drain_s{0.0};
  /// Self time of each layer over the drive, in seconds, less the
  /// clock's own share of each span.
  std::array<double, kLayerCount> self_s{};
  /// Σ self time / (drive time less the clock's cost). Code inside a file
  /// but outside every layer span (loop control, a call left out of its
  /// span) is what keeps it below 1.
  double coverage{0.0};
  /// What one span costs the clock, inside and after it.
  double clock_ns_per_span{0.0};
  /// Sum of route lengths over every walk.
  std::uint64_t hops{0};
  std::uint64_t cache_lookups{0};
  std::uint64_t cache_hits{0};
  /// The replay of the run's ledger-call sequence on a fresh ledger.
  std::uint64_t ledger_calls{0};
  double ledger_calls_s{0.0};
  /// Reasons the replay disagreed with the run's ledger.
  std::vector<std::string> failures;
};

/// Leaves this pass's spans in the TraceRecorder: one span per file, its
/// layers' accumulated self times nested inside it, plus the set-up and
/// drain phases.
[[nodiscard]] TracedPass run_traced(
    const fairswap::core::ExperimentConfig& cfg);

/// Throws std::invalid_argument for a configuration the traced pass does
/// not reproduce (another policy, free riders, diurnal modulation, the
/// reference router or ledger, per-step amortization).
void require_traceable(const fairswap::core::ExperimentConfig& cfg);

}  // namespace perfbench
