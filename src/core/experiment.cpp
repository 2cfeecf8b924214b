#include "core/experiment.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/telemetry/span.hpp"
#include "common/thread_annotations.hpp"
#include "core/report.hpp"
#include "workload/trace.hpp"

namespace fairswap::core {

namespace {

/// The preload_trace_text snapshot cache (declared in the header). One
/// struct so the mutex and the map it guards are declared together and
/// the GUARDED_BY relation is compiler-checked under -Wthread-safety.
struct TraceCache {
  Mutex mutex;
  std::map<std::string, std::string> by_path GUARDED_BY(mutex);
};

TraceCache& trace_cache() {
  // fairswap-lint: allow(mutable-global) -- deliberate process-wide
  // read-once snapshot cache: every sweep cell must replay the same
  // bytes even if the file changes mid-sweep (see the header contract).
  static TraceCache cache;
  return cache;
}

/// Recording through this process keeps the snapshot coherent: a later
/// replay of the same path sees what was just written, not a stale read.
void store_trace_text(const std::string& path, const std::string& text) {
  TraceCache& cache = trace_cache();
  const MutexLock lock(cache.mutex);
  cache.by_path[path] = text;
}

/// Drives `sim` for the experiment: trace replay, trace recording, or the
/// plain generated run. Factored so run_experiment stays one read.
void drive_simulation(Simulation& sim, const ExperimentConfig& config,
                      const overlay::Topology& topo) {
  TELEM_SPAN("drive_simulation");
  if (!config.trace_in.empty()) {
    const auto requests =
        workload::trace_from_csv(preload_trace_text(config.trace_in),
                                 {topo.node_count(), topo.space().bits()});
    if (requests.empty()) {
      throw std::runtime_error("trace file " + config.trace_in +
                               " contains no requests");
    }
    for (const auto& request : requests) sim.apply(request);
    return;
  }
  if (!config.trace_out.empty()) {
    workload::TraceRecorder recorder;
    for (std::size_t f = 0; f < config.files; ++f) {
      const auto request = sim.demand_mut().next();
      recorder.record(request);
      sim.apply(request);
    }
    std::string csv = recorder.to_csv();
    if (!write_text_file(config.trace_out, csv)) {
      throw std::runtime_error("cannot write trace file " + config.trace_out);
    }
    store_trace_text(config.trace_out, std::move(csv));
    return;
  }
  sim.run(config.files);
}

}  // namespace

// See the header: one validated read per path per process. (Parsing
// stays per replay: the range bounds depend on each cell's topology.)
const std::string& preload_trace_text(const std::string& path) {
  TraceCache& cache = trace_cache();
  const MutexLock lock(cache.mutex);
  const auto it = cache.by_path.find(path);
  if (it != cache.by_path.end()) return it->second;
  std::ifstream in(path);
  std::ostringstream text;
  if (in) text << in.rdbuf();
  // ifstream happily "opens" directories and other unreadable things on
  // Linux; the failure only surfaces on the read. An empty snapshot
  // would silently replay zero requests — the quiet workload-thinning
  // the strict parser exists to prevent.
  if (!in || in.bad() || text.str().empty()) {
    throw std::runtime_error("trace file " + path +
                             " is missing, empty or unreadable");
  }
  return cache.by_path.emplace(path, text.str()).first->second;
}

overlay::Topology build_topology(const ExperimentConfig& config) {
  TELEM_SPAN("build_topology");
  Rng root(config.seed);
  Rng topo_rng = root.split(0);
  return overlay::Topology::build(config.topology, topo_rng);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const overlay::Topology topo = build_topology(config);
  return run_experiment(topo, config);
}

ExperimentResult run_experiment(const overlay::Topology& topo,
                                const ExperimentConfig& config) {
  if (topo.node_count() != config.topology.node_count) {
    throw std::invalid_argument(
        "experiment topology config does not match the provided topology");
  }
  const std::uint64_t start_ns = telemetry::wall_now_ns();

  Rng root(config.seed);
  Rng sim_rng = root.split(1);
  Simulation sim(topo, config.sim, sim_rng);
  drive_simulation(sim, config, topo);
  // Flow-level runs: let every in-flight transfer finish or time out so
  // the totals carry final FCT percentiles (no-op otherwise).
  {
    TELEM_SPAN("flow_drain");
    sim.finish_flows();
  }

  return package_experiment(
      config, sim,
      static_cast<double>(telemetry::wall_now_ns() - start_ns) * 1e-9);
}

ExperimentResult package_experiment(const ExperimentConfig& config,
                                    const Simulation& sim,
                                    double runtime_seconds) {
  TELEM_SPAN("package_experiment");
  ExperimentResult result;
  result.config = config;
  result.totals = sim.totals();
  result.counters = sim.telem();
  result.served_per_node = sim.served_per_node();
  result.first_hop_per_node = sim.first_hop_per_node();
  result.income_per_node = sim.income_per_node();
  result.served_summary =
      summarize(std::span<const std::uint64_t>(result.served_per_node));
  result.avg_forwarded_chunks = result.served_summary.mean;
  result.fairness = compute_fairness(
      FairnessInputs{result.served_per_node, result.first_hop_per_node,
                     result.income_per_node},
      config.lorenz_points);
  result.routing_success =
      result.totals.chunk_requests == 0
          ? 0.0
          : 1.0 - static_cast<double>(result.totals.failed_routes +
                                      result.totals.truncated_routes) /
                      static_cast<double>(result.totals.chunk_requests);
  result.settlement_count = sim.swap().settlements().size();
  for (const auto& c : sim.counters()) result.cache_serves += c.cache_serves;
  for (const double v : result.income_per_node) result.total_income += v;
  if (sim.stream().hops.count() > 0) {
    result.hops_p50 = sim.stream().hops.quantile(0.50);
    result.hops_p99 = sim.stream().hops.quantile(0.99);
  }
  // Per-node tails through the same bounded-memory sketch heavy-traffic
  // runs aggregate with, so the sink columns exercise one code path at
  // every scale.
  PercentileSketch served_sketch;
  for (const std::uint64_t v : result.served_per_node) {
    served_sketch.add(static_cast<double>(v));
  }
  result.served_p99 = served_sketch.quantile(0.99);
  PercentileSketch income_sketch;
  for (const double v : result.income_per_node) income_sketch.add(v);
  result.income_p99 = income_sketch.quantile(0.99);
  result.outstanding_debt =
      static_cast<double>(sim.swap().outstanding_debt().base_units());
  result.runtime_seconds = runtime_seconds;
  return result;
}

}  // namespace fairswap::core
