// Tier-1 pin of whole flow-level runs. The flow plane's speedups must not
// move one bit of output, so three small runs of the paper's 1000-node
// cell are hashed — every FlowReport field plus the sim-plane counter
// fingerprint (events popped, rate recomputes, saturation episodes, ...)
// — against values recorded from the plain progressive-filling allocator
// on the callback event queue now kept in reference_event_queue.hpp, 16
// files of the paper's k=4 cell at seed 1. The timeout run (about half
// the flows time out) pins the (time, scheduling order) interleaving of
// timeout and completion events; the bounded_fct run pins the sketch
// path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "core/simulation.hpp"
#include "net/flow_sim.hpp"

namespace fairswap::core {
namespace {

/// FNV-1a over 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xCBF29CE484222325ull};
};

std::uint64_t hash_report(const net::FlowReport& r,
                          std::uint64_t counters_fingerprint) {
  Fnv1a h;
  h.add(r.started);
  h.add(r.completed);
  h.add(r.timed_out);
  h.add(r.fct_p50);
  h.add(r.fct_p90);
  h.add(r.fct_p99);
  h.add(r.fct_mean);
  h.add(r.saturated_links);
  h.add(r.max_link_utilization);
  h.add(r.makespan);
  h.add(counters_fingerprint);
  return h.value();
}

struct PinCase {
  const char* name;
  engine::SimTime timeout;
  bool bounded_fct;
  std::uint64_t expected;
};

TEST(FlowPin, WholeRunsMatchPinnedHashes) {
  constexpr std::size_t kFiles = 16;
  constexpr std::uint64_t kSeed = 1;
  const PinCase cases[] = {
      {"interarrival=250", 0, false, 0x2131ca523ab91643ull},
      {"interarrival=250 timeout=3000", 3000, false, 0xd7aaedd981a057ccull},
      {"interarrival=250 bounded_fct", 0, true, 0xc58a7bf798fa7a0full},
  };
  ExperimentConfig cfg = paper_config(4, 1.0, kFiles, kSeed);
  const overlay::Topology topo = build_topology(cfg);
  for (const PinCase& c : cases) {
    cfg.sim.flow_level = true;
    cfg.sim.flow.interarrival = 250;
    cfg.sim.flow.timeout = c.timeout;
    cfg.sim.flow.bounded_fct = c.bounded_fct;
    Simulation sim(topo, cfg.sim, Rng(kSeed));
    sim.run(kFiles);
    sim.finish_flows();
    const net::FlowReport report = sim.flow_simulator()->report();
    ASSERT_GT(report.completed, 0u) << c.name;
    if (c.timeout > 0) {
      ASSERT_GT(report.timed_out, 0u) << c.name;
    }
    const std::uint64_t got = hash_report(report, sim.telem().fingerprint());
    EXPECT_EQ(got, c.expected)
        << c.name << ": hash 0x" << std::hex << got << std::dec
        << " (started " << report.started << ", completed "
        << report.completed << ", timed out " << report.timed_out << ")";
  }
}

}  // namespace
}  // namespace fairswap::core
