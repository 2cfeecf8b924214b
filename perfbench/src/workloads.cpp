#include "workloads.hpp"

#include <array>

#include "core/scenarios.hpp"

namespace perfbench {

namespace {

using fairswap::core::ExperimentConfig;

// The paper's Table I / Fig. 4-6 cell (k=4, every node originates,
// uniform demand, zero-proximity payments) scaled to 10k nodes in a
// 20-bit space, so the router arena and the ledger do not fit in cache.
ExperimentConfig paper_10k(std::uint64_t seed) {
  return fairswap::core::scale_config(10'000, 20, 4, 1.0, /*files=*/2'000,
                                      seed);
}

// The paper's 1000-node, 16-bit, k=4 cell with every delivered chunk
// simulated as a max-min fair flow. At the library default interarrival
// of 50 ticks the in-flight set grows without bound (a run would measure
// the backlog, not the code); at 250 the number in flight stays flat.
ExperimentConfig flow_1k(std::uint64_t seed) {
  ExperimentConfig cfg = fairswap::core::paper_config(4, 1.0, /*files=*/240,
                                                      seed);
  cfg.sim.flow_level = true;
  cfg.sim.flow.interarrival = 250;
  return cfg;
}

// The same 10k-node overlay under composed demand: Zipf popularity over a
// fixed catalog, a flash crowd, a 20% upload mix, per-node LRU caches and
// streaming percentile sketches. Caching turns batched routing off, so
// every chunk takes the per-hop walk with cache lookups. README.md gives
// the basis of each value.
ExperimentConfig zipf_cache_mix(std::uint64_t seed) {
  ExperimentConfig cfg = fairswap::core::scale_config(10'000, 20, 4, 1.0,
                                                      /*files=*/2'000, seed);
  // zipf_s, catalog and burst_share keep the DemandConfig defaults.
  cfg.sim.demand.kind = fairswap::workload::DemandConfig::Kind::kZipf;
  // The heavy_traffic scenario's flash-crowd window.
  cfg.sim.demand.burst_start = 1'000;
  cfg.sim.demand.burst_files = 5'000;
  cfg.sim.workload.upload_share = 0.2;
  cfg.sim.cache_capacity = 512;
  cfg.sim.stream_metrics = true;
  return cfg;
}

constexpr std::array<Workload, 3> kWorkloads = {{
    {"paper_10k", &paper_10k, 0x8b5045bd8fa3e52cull},
    {"flow_1k", &flow_1k, 0x5aba9b0223647ea9ull},
    {"zipf_cache_mix", &zipf_cache_mix, 0x94f2641ef8bb944bull},
}};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
