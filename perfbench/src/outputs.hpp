// What one pass produced, and the checks every pass must pass. The
// untraced pass reads these through Simulation's public accessors; the
// traced pass builds them from its own layer objects, and the two must be
// equal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry/counters.hpp"
#include "core/simulation.hpp"
#include "net/flow_sim.hpp"
#include "overlay/compiled_router.hpp"

namespace perfbench {

struct Outputs {
  fairswap::core::SimulationTotals totals;
  /// Per-node income and spending in token base units.
  std::vector<std::int64_t> income;
  std::vector<std::int64_t> spent;
  fairswap::telemetry::CounterBlock counters;
  std::vector<fairswap::core::NodeCounters> nodes;
  /// Fingerprint of the streaming hop sketch (stream_metrics runs).
  std::uint64_t hops_fingerprint{0};
  /// Entries in the ledger's settlement log.
  std::size_t settlement_log{0};
  /// Mean in-flight flow count after each file of the second quarter of
  /// the files (mid) and of the last quarter (end, before the drain); 0
  /// on counter-based runs. The count swings by a third from one file to
  /// the next, so single samples would hide a trend.
  double active_flows_mid{0.0};
  double active_flows_end{0.0};
};

/// Accumulates Outputs::active_flows_mid / active_flows_end.
class BacklogProbe {
 public:
  explicit BacklogProbe(std::size_t files) : files_(files) {}

  /// Call after file `f` (0-based) with the in-flight flow count.
  void after_file(std::size_t f, std::size_t active) noexcept {
    const std::size_t quarter = f * 4 / files_;
    if (quarter == 1) mid_.add(active);
    if (quarter == 3) end_.add(active);
  }
  void finish(Outputs& out) const noexcept {
    out.active_flows_mid = mid_.mean();
    out.active_flows_end = end_.mean();
  }

 private:
  struct Mean {
    double sum{0.0};
    std::size_t n{0};
    void add(std::size_t v) noexcept {
      sum += static_cast<double>(v);
      ++n;
    }
    [[nodiscard]] double mean() const noexcept {
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    }
  };
  std::size_t files_;
  Mean mid_;
  Mean end_;
};

/// Memory held by the long-lived structures, read through public
/// accessors once a pass has finished.
struct Footprint {
  double router_mb{0.0};
  double ledger_mb{0.0};
  double settlement_log_mb{0.0};
  double fct_samples_mb{0.0};
};

/// `flow` may be null (counter-based runs).
[[nodiscard]] Footprint footprint_of(
    const fairswap::overlay::CompiledRouter& router,
    const fairswap::accounting::Ledger& ledger,
    const fairswap::net::FlowSimulator* flow);

/// FNV-1a over the totals, the per-node income and the counter block's
/// own fingerprint — the value pinned per workload.
[[nodiscard]] std::uint64_t fingerprint(const Outputs& out);

/// The mean in-flight flow count over the last quarter of a pass's files
/// may exceed the second quarter's by at most this share before the pass
/// counts as a growing backlog. Counter-based runs have no flows in
/// flight, so the guard never fires on them.
inline constexpr double kBacklogTolerance = 0.5;

/// Appends a named reason to `failures` for every invariant `out`
/// violates: request conservation, token conservation (no policy in these
/// workloads mints, so income == spent), flow conservation, and an
/// in-flight flow mean that grew from the middle to the end of the run by
/// more than kBacklogTolerance.
void check_invariants(const Outputs& out, std::vector<std::string>& failures);

/// Appends a reason to `failures` unless `a` and `b` agree on totals,
/// per-node income, spending and activity counters, telemetry counters,
/// hop sketch, settlement log and in-flight flow means.
void check_same(const Outputs& a, const Outputs& b, const std::string& what,
                std::vector<std::string>& failures);

}  // namespace perfbench
