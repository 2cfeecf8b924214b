#include "common/telemetry/span.hpp"
#include "passes.hpp"

namespace perfbench {

namespace {

using fairswap::telemetry::wall_now_ns;

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

}  // namespace

UntracedPass run_untraced(const fairswap::core::ExperimentConfig& cfg) {
  namespace core = fairswap::core;
  UntracedPass pass;

  const std::uint64_t t0 = wall_now_ns();
  const fairswap::overlay::Topology topo = core::build_topology(cfg);
  const std::uint64_t t1 = wall_now_ns();
  // The seed split run_experiment uses.
  core::Simulation sim(topo, cfg.sim, fairswap::Rng(cfg.seed).split(1));
  const std::uint64_t t2 = wall_now_ns();

  const fairswap::net::FlowSimulator* flow = sim.flow_simulator();
  BacklogProbe backlog(cfg.files);
  pass.apply_us.reserve(cfg.files);
  for (std::size_t f = 0; f < cfg.files; ++f) {
    const fairswap::workload::DownloadRequest request = sim.demand_mut().next();
    const std::uint64_t a = wall_now_ns();
    sim.apply(request);
    pass.apply_us.push_back(static_cast<double>(wall_now_ns() - a) * 1e-3);
    if (flow != nullptr) backlog.after_file(f, flow->active_flows());
  }
  backlog.finish(pass.out);
  const std::uint64_t t3 = wall_now_ns();
  sim.finish_flows();
  const std::uint64_t t4 = wall_now_ns();
  const core::ExperimentResult result = core::package_experiment(cfg, sim, 0.0);
  const std::uint64_t t5 = wall_now_ns();

  pass.build_s = seconds_between(t0, t1);
  pass.construct_s = seconds_between(t1, t2);
  pass.drive_s = seconds_between(t2, t3);
  pass.drain_s = seconds_between(t3, t4);
  pass.fold_s = seconds_between(t4, t5);

  Outputs& out = pass.out;
  out.totals = result.totals;
  out.counters = sim.telem();
  out.nodes = sim.counters();
  for (const fairswap::Token v : sim.swap().income()) {
    out.income.push_back(v.base_units());
  }
  for (const fairswap::Token v : sim.swap().spent()) {
    out.spent.push_back(v.base_units());
  }
  out.hops_fingerprint = sim.stream().hops.fingerprint();
  out.settlement_log = sim.swap().settlements().size();
  return pass;
}

}  // namespace perfbench
