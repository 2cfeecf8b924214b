#include "outputs.hpp"

#include <bit>
#include <numeric>

namespace perfbench {

namespace {

struct Fnv {
  std::uint64_t h{1469598103934665603ull};

  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::int64_t sum(const std::vector<std::int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

Footprint footprint_of(const fairswap::overlay::CompiledRouter& router,
                       const fairswap::accounting::Ledger& ledger,
                       const fairswap::net::FlowSimulator* flow) {
  Footprint fp;
  fp.router_mb = static_cast<double>(router.memory_bytes()) / kMiB;
  fp.ledger_mb = static_cast<double>(ledger.memory_bytes()) / kMiB;
  fp.settlement_log_mb =
      static_cast<double>(ledger.settlements().size() *
                          sizeof(fairswap::accounting::Settlement)) /
      kMiB;
  if (flow != nullptr) {
    fp.fct_samples_mb = static_cast<double>(flow->fct_samples().size() *
                                            sizeof(fairswap::engine::SimTime)) /
                        kMiB;
  }
  return fp;
}

std::uint64_t fingerprint(const Outputs& out) {
  const fairswap::core::SimulationTotals& t = out.totals;
  Fnv fnv;
  for (const std::uint64_t v :
       {t.files, t.upload_files, t.chunk_requests, t.upload_requests,
        t.delivered, t.refused, t.failed_routes, t.truncated_routes,
        t.local_hits, t.total_transmissions, t.flows_started,
        t.flows_completed, t.flows_timed_out, t.saturated_links,
        t.flow_makespan}) {
    fnv.add(v);
  }
  for (const double v : {t.fct_p50, t.fct_p90, t.fct_p99, t.fct_mean,
                         t.max_link_utilization}) {
    fnv.add(v);
  }
  for (const std::int64_t v : out.income) {
    fnv.add(static_cast<std::uint64_t>(v));
  }
  fnv.add(out.counters.fingerprint());
  return fnv.h;
}

void check_invariants(const Outputs& out, std::vector<std::string>& failures) {
  const fairswap::core::SimulationTotals& t = out.totals;
  if (t.delivered + t.refused + t.failed_routes + t.truncated_routes !=
      t.chunk_requests) {
    failures.push_back(
        "request conservation: delivered + refused + failed + truncated != "
        "chunk_requests");
  }
  if (sum(out.income) != sum(out.spent)) {
    failures.push_back("token conservation: sum(income) != sum(spent)");
  }
  if (t.flows_started != t.flows_completed + t.flows_timed_out) {
    failures.push_back(
        "flow conservation: flows started != completed + timed out");
  }
  if (out.active_flows_end > out.active_flows_mid * (1.0 + kBacklogTolerance)) {
    failures.push_back("flow backlog grew: " +
                       std::to_string(out.active_flows_mid) +
                       " flows in flight in the second quarter, " +
                       std::to_string(out.active_flows_end) +
                       " in the last");
  }
}

void check_same(const Outputs& a, const Outputs& b, const std::string& what,
                std::vector<std::string>& failures) {
  const auto differ = [&](const char* field) {
    failures.push_back(what + ": " + field + " differ");
  };
  if (!(a.totals == b.totals)) differ("totals");
  if (a.income != b.income) differ("per-node income");
  if (a.spent != b.spent) differ("per-node spending");
  if (a.nodes != b.nodes) differ("per-node activity counters");
  if (!(a.counters == b.counters)) differ("telemetry counters");
  if (a.hops_fingerprint != b.hops_fingerprint) differ("hop sketches");
  if (a.settlement_log != b.settlement_log) differ("settlement logs");
  if (a.active_flows_mid != b.active_flows_mid ||
      a.active_flows_end != b.active_flows_end) {
    differ("in-flight flow counts");
  }
}

}  // namespace perfbench
