// The traced pass: core::Simulation's per-file pipeline re-driven through
// each layer's public calls, with one start/stop pair of clock reads around
// each layer's calls. Code outside every span stays uncovered, so
// trace.coverage (span time / file time) drops when a call is left out of
// its span. Where the order of layers between chunks changes no result,
// a layer's calls for all of a file's chunks share one span, which keeps
// the clock reads (about 22 ns each on the VM the README's numbers come
// from) few. The equality check against the untraced pass proves the
// regrouping changed nothing.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "accounting/ledger.hpp"
#include "accounting/pricing.hpp"
#include "common/telemetry/span.hpp"
#include "incentives/policy.hpp"
#include "net/flow_sim.hpp"
#include "overlay/compiled_router.hpp"
#include "passes.hpp"
#include "storage/store.hpp"
#include "workload/engine.hpp"

namespace perfbench {

namespace {

namespace core = fairswap::core;
namespace tel = fairswap::telemetry;
using fairswap::Address;
using fairswap::overlay::NodeIndex;
using fairswap::overlay::Route;
using tel::Counter;
using tel::wall_now_ns;

/// A cheap monotonic tick: the TSC where there is one, else steady ns.
/// Ticks become nanoseconds through a rate measured over the whole pass.
/// The fences keep the read in program order: a bare rdtsc can run ahead
/// of an earlier load that misses cache, which moves the miss out of the
/// span that caused it.
std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return wall_now_ns();
#endif
}

/// What the clock itself costs one span, in ticks.
struct ClockCost {
  /// Inside an empty span: the part of the two reads the span sees.
  double inside{0.0};
  /// From the end of one span to the start of the next when no code
  /// separates them.
  double between{0.0};
};

/// Times back-to-back empty spans.
ClockCost measure_clock_cost() {
  constexpr std::size_t kSpans = 1 << 16;
  std::uint64_t inside = 0;
  const std::uint64_t start = ticks();
  for (std::size_t i = 0; i < kSpans; ++i) {
    const std::uint64_t open = ticks();
    inside += ticks() - open;
  }
  const std::uint64_t total = ticks() - start;
  return {static_cast<double>(inside) / kSpans,
          static_cast<double>(total - inside) / kSpans};
}

/// Accumulates each layer's self time from one start/stop pair per span.
class SpanClock {
 public:
  /// Runs `fn` inside a span charged to `layer`; returns what it returns.
  template <typename Fn>
  decltype(auto) time(Layer layer, Fn&& fn) {
    ++spans_[layer];
    const std::uint64_t start = ticks();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      spent_[layer] += ticks() - start;
    } else {
      auto result = fn();
      spent_[layer] += ticks() - start;
      return result;
    }
  }

  [[nodiscard]] const std::array<std::uint64_t, kLayerCount>& spent()
      const noexcept {
    return spent_;
  }
  [[nodiscard]] const std::array<std::uint64_t, kLayerCount>& spans()
      const noexcept {
    return spans_;
  }

 private:
  std::array<std::uint64_t, kLayerCount> spent_{};
  std::array<std::uint64_t, kLayerCount> spans_{};
};

/// One file's boundaries and per-layer ticks, kept for the trace export.
struct FileSpan {
  std::uint64_t start{0};
  std::uint64_t end{0};
  std::array<std::uint64_t, kLayerCount> layers{};
};

/// One call the drive made on the ledger.
struct LedgerCall {
  enum class Kind : std::uint8_t {
    kPayDirect,
    kDebit,  ///< non-settling, as zero-proximity issues to relays
    kTick,   ///< the advance_tick that ends a file
  };
  NodeIndex consumer{0};
  NodeIndex provider{0};
  fairswap::overlay::EdgeId edge{fairswap::overlay::kNoEdge};
  Kind kind{Kind::kTick};
  fairswap::Token amount;
};

/// Every layer object a core::Simulation owns, built the way its
/// constructor builds them, plus the state it keeps between them.
class Replica {
 public:
  Replica(const fairswap::overlay::Topology& topo,
          const core::ExperimentConfig& cfg)
      : topo_(topo),
        sim_cfg_(cfg.sim),
        router_(topo.compiled_shared()),
        ledger_(*router_, sim_cfg_.swap),
        replay_(*router_, sim_cfg_.swap),
        pricer_(fairswap::accounting::make_pricer(sim_cfg_.pricer)),
        policy_(fairswap::incentives::make_policy(sim_cfg_.policy)),
        max_hops_(sim_cfg_.max_route_hops != 0
                      ? sim_cfg_.max_route_hops
                      : static_cast<std::size_t>(topo.space().bits()) * 4) {
    const fairswap::Rng rng = fairswap::Rng(cfg.seed).split(1);
    engine_ = std::make_unique<fairswap::workload::DemandEngine>(
        topo, sim_cfg_.workload, sim_cfg_.demand, rng.split(1));
    free_riders_ = core::Simulation::sample_free_riders(
        topo.node_count(), sim_cfg_.free_rider_share, rng.split(2));
    stores_.reserve(topo.node_count());
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      stores_.emplace_back(sim_cfg_.cache_capacity);
    }
    nodes_.resize(topo.node_count());
    if (sim_cfg_.flow_level) {
      flow_ = std::make_unique<fairswap::net::FlowSimulator>(
          *router_, topo.node_count(), sim_cfg_.flow);
      flow_->set_counters(&telem_);
    }
    ledger_.set_counters(&telem_);
    engine_->set_counters(&telem_);
    ctx_.topo = &topo_;
    ctx_.swap = &ledger_;
    ctx_.pricer = pricer_.get();
    ctx_.free_rider = &free_riders_;
    ctx_.refuses_service = &refuse_service_;
  }

  /// Simulation::apply(engine.next()) for one file. Work of one layer
  /// over the file's chunks runs in one span where the order of the
  /// layers between chunks changes no result: the routes of a batch do
  /// not depend on payments, and the per-node counters and flow starts
  /// depend on nothing the other layers read.
  void step(SpanClock& clock) {
    const fairswap::workload::DownloadRequest request =
        clock.time(kWorkload, [&] { return engine_->next(); });
    if (flow_) {
      clock.time(kNetAdvance, [&] {
        flow_->advance_to(sim_cfg_.flow.interarrival * totals_.files);
      });
    }
    const std::size_t n = request.chunks.size();
    const bool batched = sim_cfg_.cache_capacity == 0;
    clock.time(kCore, [&] {
      if (request.is_upload) ++totals_.upload_files;
      if (sim_cfg_.stream_metrics) {
        stream_.chunks_per_file.add(static_cast<double>(n));
      }
      delivered_.assign(n, false);
      from_cache_.assign(n, false);
      if (batched) {
        origins_.assign(n, request.originator);
        telem_.bump(Counter::kRouteBatches);
      } else if (routes_.size() < n) {
        routes_.resize(n);
      }
      telem_.bump(Counter::kRouteWalks, n);
    });
    if (batched) {
      clock.time(kOverlay, [&] {
        router_->route_batch(origins_, request.chunks, routes_,
                             sim_cfg_.max_route_hops);
      });
      clock.time(kIncentives, [&] {
        for (std::size_t c = 0; c < n; ++c) delivered_[c] = pay(routes_[c]);
      });
    } else {
      // Each walk sees the caches the previous chunk's delivery filled,
      // and a delivery fills caches only once the policy admitted it.
      for (std::size_t c = 0; c < n; ++c) {
        Route& route = routes_[c];
        from_cache_[c] = walk(request.originator, request.chunks[c], route,
                              clock);
        delivered_[c] = clock.time(kIncentives, [&] { return pay(route); });
        if (delivered_[c] && route.hops() > 0) {
          clock.time(kStorage, [&] {
            for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
              stores_[route.path[i]].cache(route.target);
            }
          });
        }
      }
    }
    clock.time(kCore, [&] {
      for (std::size_t c = 0; c < n; ++c) {
        note(routes_[c], delivered_[c], from_cache_[c], request.is_upload);
      }
    });
    if (flow_) {
      clock.time(kNetStart, [&] {
        for (std::size_t c = 0; c < n; ++c) {
          if (delivered_[c] && routes_[c].hops() > 0) {
            flow_->start_chunk(routes_[c], request.is_upload);
          }
        }
      });
      clock.time(kNetCommit, [&] { flow_->commit(); });
    }
    clock.time(kIncentives, [&] { policy_->on_step_end(ctx_); });
    clock.time(kAccounting, [&] { ledger_.advance_tick(); });
    ++totals_.files;
  }

  /// Appends the ledger calls zero-proximity made for this file's
  /// deliveries, then the file's tick, to the call log. Not part of the
  /// drive.
  void log_ledger_calls() {
    for (std::size_t c = 0; c < delivered_.size(); ++c) {
      const Route& route = routes_[c];
      if (!delivered_[c] || route.hops() == 0) continue;
      calls_.push_back({route.originator(), route.first_hop(), route.edge(0),
                        LedgerCall::Kind::kPayDirect,
                        ctx_.price(route.first_hop(), route.target)});
      for (std::size_t i = 1; i + 1 < route.path.size(); ++i) {
        calls_.push_back({route.path[i], route.path[i + 1], route.edge(i),
                          LedgerCall::Kind::kDebit,
                          ctx_.price(route.path[i + 1], route.target)});
      }
    }
    calls_.push_back({});
  }

  /// Feeds the logged calls to a fresh ledger, after the drive so its
  /// memory traffic does not slow the drive; returns the ticks the
  /// payment and debit calls took.
  std::uint64_t replay_ledger_calls() {
    fairswap::accounting::Ledger& fresh = replay_;
    std::uint64_t spent = 0;
    std::uint64_t t0 = ticks();
    for (const LedgerCall& call : calls_) {
      switch (call.kind) {
        case LedgerCall::Kind::kPayDirect:
          fresh.pay_direct(call.consumer, call.provider, call.amount);
          break;
        case LedgerCall::Kind::kDebit:
          (void)fresh.debit(call.consumer, call.provider, call.amount,
                            /*can_settle=*/false, call.edge);
          break;
        case LedgerCall::Kind::kTick: {
          const std::uint64_t t1 = ticks();
          spent += t1 - t0;
          fresh.advance_tick();
          t0 = ticks();
          break;
        }
      }
    }
    ledger_calls_ = calls_.size() - totals_.files;
    calls_ = {};
    return spent;
  }

  void drain() {
    if (!flow_) return;
    flow_->drain();
    const fairswap::net::FlowReport report = flow_->report();
    totals_.flows_started = report.started;
    totals_.flows_completed = report.completed;
    totals_.flows_timed_out = report.timed_out;
    totals_.saturated_links = report.saturated_links;
    totals_.flow_makespan = report.makespan;
    totals_.fct_p50 = report.fct_p50;
    totals_.fct_p90 = report.fct_p90;
    totals_.fct_p99 = report.fct_p99;
    totals_.fct_mean = report.fct_mean;
    totals_.max_link_utilization = report.max_link_utilization;
  }

  [[nodiscard]] std::size_t active_flows() const {
    return flow_ ? flow_->active_flows() : 0;
  }

  void collect(TracedPass& pass) const {
    Outputs& out = pass.out;
    out.totals = totals_;
    out.counters = telem_;
    out.nodes = nodes_;
    for (const fairswap::Token v : ledger_.income()) {
      out.income.push_back(v.base_units());
    }
    for (const fairswap::Token v : ledger_.spent()) {
      out.spent.push_back(v.base_units());
    }
    out.hops_fingerprint = stream_.hops.fingerprint();
    out.settlement_log = ledger_.settlements().size();
    pass.footprint = footprint_of(*router_, ledger_, flow_.get());
    pass.hops = hops_;
    for (const fairswap::storage::ChunkStore& store : stores_) {
      pass.cache_hits += store.stats().hits;
      pass.cache_lookups += store.stats().hits + store.stats().misses;
    }
    pass.ledger_calls = ledger_calls_;
    if (replay_.income() != ledger_.income() ||
        replay_.spent() != ledger_.spent() ||
        replay_.settlements() != ledger_.settlements()) {
      pass.failures.push_back(
          "ledger replay: a fresh ledger fed the run's call sequence ends "
          "in a different state");
    }
  }

 private:
  /// The per-hop greedy walk of Simulation::request_chunk, with cache
  /// lookups; the walk's own path bookkeeping is charged to the overlay.
  /// Returns true when a cache, not the storer, ended the walk.
  bool walk(NodeIndex originator, Address chunk, Route& route,
            SpanClock& clock) {
    const NodeIndex storer = clock.time(kOverlay, [&] {
      route.reset(chunk);
      route.path.push_back(originator);
      return router_->storer_of(chunk);
    });
    NodeIndex cur = originator;
    for (;;) {
      if (cur == storer) {
        route.reached_storer = true;
        return false;
      }
      if (clock.time(kStorage, [&] { return stores_[cur].lookup(chunk); })) {
        route.reached_storer = true;
        return true;
      }
      if (route.hops() >= max_hops_) {
        route.truncated = true;
        return false;
      }
      const bool moved = clock.time(kOverlay, [&] {
        const auto hop = router_->next_hop_edge(cur, chunk);
        if (hop.next == fairswap::overlay::kNoNextHop) return false;
        cur = hop.next;
        route.path.push_back(cur);
        route.edges.push_back(hop.edge);
        return true;
      });
      if (!moved) return false;
    }
  }

  void note_request(const Route& route, bool is_upload) {
    ++totals_.chunk_requests;
    if (is_upload) ++totals_.upload_requests;
    ++nodes_[route.originator()].chunks_requested;
    hops_ += route.hops();
  }

  void record_hops(double hops) {
    stream_.hops.add(hops);
    if (stream_.hops_sample.size() < sim_cfg_.stream_sample_cap) {
      stream_.hops_sample.push_back(hops);
    }
  }

  /// The policy's part of Simulation::account for one routed chunk;
  /// returns true if the chunk is delivered. Strategic service refusal is
  /// off (require_traceable), so admit is the first decision.
  bool pay(const Route& route) {
    if (!route.reached_storer) return false;
    if (route.hops() == 0) return true;
    if (!policy_->admit(ctx_, route)) return false;
    policy_->on_delivery(ctx_, route);
    return true;
  }

  /// The bookkeeping part of Simulation::account for one routed chunk.
  void note(const Route& route, bool delivered, bool from_cache,
            bool is_upload) {
    note_request(route, is_upload);
    if (!route.reached_storer) {
      if (route.truncated) {
        ++totals_.truncated_routes;
        telem_.bump(Counter::kRoutesTruncated);
      } else {
        ++totals_.failed_routes;
        telem_.bump(Counter::kRoutesFailed);
      }
      return;
    }
    if (route.hops() == 0) {
      ++totals_.local_hits;
      ++totals_.delivered;
      telem_.bump(Counter::kLocalHits);
      telem_.bump(Counter::kChunksDelivered);
      ++nodes_[route.originator()].local_hits;
      if (sim_cfg_.stream_metrics) record_hops(0.0);
      return;
    }
    if (!delivered) {
      ++totals_.refused;
      telem_.bump(Counter::kServiceRefusals);
      return;
    }
    for (std::size_t i = 1; i < route.path.size(); ++i) {
      ++nodes_[route.path[i]].chunks_served;
      ++totals_.total_transmissions;
    }
    if (from_cache) ++nodes_[route.terminal()].cache_serves;
    ++nodes_[route.first_hop()].chunks_served_first_hop;
    ++totals_.delivered;
    telem_.bump(Counter::kChunksDelivered);
    if (sim_cfg_.stream_metrics) {
      record_hops(static_cast<double>(route.hops()));
    }
  }

  const fairswap::overlay::Topology& topo_;
  core::SimulationConfig sim_cfg_;
  std::shared_ptr<const fairswap::overlay::CompiledRouter> router_;
  fairswap::accounting::Ledger ledger_;
  fairswap::accounting::Ledger replay_;
  std::unique_ptr<fairswap::accounting::Pricer> pricer_;
  std::unique_ptr<fairswap::incentives::PaymentPolicy> policy_;
  std::unique_ptr<fairswap::workload::DemandEngine> engine_;
  std::unique_ptr<fairswap::net::FlowSimulator> flow_;
  std::vector<fairswap::storage::ChunkStore> stores_;
  std::vector<core::NodeCounters> nodes_;
  std::vector<std::uint8_t> free_riders_;
  std::vector<std::uint8_t> refuse_service_;
  core::SimulationTotals totals_;
  core::StreamAggregates stream_;
  tel::CounterBlock telem_;
  fairswap::incentives::PolicyContext ctx_;
  std::size_t max_hops_;
  std::uint64_t hops_{0};
  std::uint64_t ledger_calls_{0};
  std::vector<Route> routes_;
  std::vector<NodeIndex> origins_;
  std::vector<bool> delivered_;
  std::vector<bool> from_cache_;
  std::vector<LedgerCall> calls_;
};

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case kWorkload: return "workload.draw";
    case kOverlay: return "overlay.route";
    case kIncentives: return "incentives.account";
    case kAccounting: return "accounting.tick";
    case kStorage: return "storage.cache";
    case kNetStart: return "net.start";
    case kNetCommit: return "net.commit";
    case kNetAdvance: return "net.advance";
    case kCore: return "core.bookkeeping";
    case kLayerCount: break;
  }
  return "invalid";
}

void require_traceable(const core::ExperimentConfig& cfg) {
  const core::SimulationConfig& s = cfg.sim;
  if (s.policy != "zero-proximity" || s.free_rider_share != 0.0 ||
      s.amortize_each_step || !s.compiled_routing || !s.compiled_ledger ||
      (s.demand.diurnal_period > 0.0 && s.demand.diurnal_amp > 0.0) ||
      !cfg.trace_in.empty() || !cfg.trace_out.empty()) {
    throw std::invalid_argument(
        "the traced pass reproduces only zero-proximity runs on the "
        "compiled router and edge ledger, without free riders, diurnal "
        "modulation, per-step amortization or trace files");
  }
}

TracedPass run_traced(const core::ExperimentConfig& cfg) {
  require_traceable(cfg);
  tel::TraceRecorder& recorder = tel::TraceRecorder::instance();
  recorder.enable();
  TracedPass pass;
  const std::uint64_t wall0 = wall_now_ns();
  const std::uint64_t tick0 = ticks();

  const fairswap::overlay::Topology topo = core::build_topology(cfg);
  const std::uint64_t t1 = wall_now_ns();
  Replica replica(topo, cfg);
  const std::uint64_t t2 = wall_now_ns();

  // The drive is the sum of the file spans; the benchmark's own work
  // between files (the backlog probe, the ledger-call log) is outside it.
  const ClockCost cost = measure_clock_cost();
  std::vector<FileSpan> spans(cfg.files);
  BacklogProbe backlog(cfg.files);
  std::uint64_t drive_ticks = 0;
  SpanClock clock;
  for (std::size_t f = 0; f < cfg.files; ++f) {
    FileSpan& span = spans[f];
    span.layers = clock.spent();
    span.start = ticks();
    replica.step(clock);
    span.end = ticks();
    drive_ticks += span.end - span.start;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      span.layers[l] = clock.spent()[l] - span.layers[l];
    }
    backlog.after_file(f, replica.active_flows());
    replica.log_ledger_calls();
  }
  backlog.finish(pass.out);
  const std::uint64_t t3 = wall_now_ns();
  replica.drain();
  const std::uint64_t t4 = wall_now_ns();
  const std::uint64_t tick4 = ticks();
  const std::uint64_t replay_ticks = replica.replay_ledger_calls();

  // A layer's self time is its span time less the clock's own share of
  // each span, and coverage compares it with the file time less the
  // clock's whole cost. Coverage is a ratio of ticks, so it does not
  // depend on the tick rate; the rate, measured over the whole pass, only
  // converts ticks to time.
  std::array<double, kLayerCount> self_ticks{};
  double covered_ticks = 0.0;
  double clock_ticks = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto n = static_cast<double>(clock.spans()[l]);
    self_ticks[l] = std::max(
        0.0, static_cast<double>(clock.spent()[l]) - n * cost.inside);
    covered_ticks += self_ticks[l];
    clock_ticks += n * (cost.inside + cost.between);
  }
  pass.coverage =
      covered_ticks / std::max(1.0, static_cast<double>(drive_ticks) -
                                        clock_ticks);
  const double ns_per_tick =
      static_cast<double>(t4 - wall0) / static_cast<double>(tick4 - tick0);
  const auto secs = [&](auto t) {
    return static_cast<double>(t) * ns_per_tick * 1e-9;
  };
  pass.build_s = static_cast<double>(t1 - wall0) * 1e-9;
  pass.construct_s = static_cast<double>(t2 - t1) * 1e-9;
  pass.drive_s = secs(drive_ticks);
  pass.drain_s = static_cast<double>(t4 - t3) * 1e-9;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    pass.self_s[l] = secs(self_ticks[l]);
  }
  pass.ledger_calls_s = secs(replay_ticks);
  pass.clock_ns_per_span = (cost.inside + cost.between) * ns_per_tick;
  replica.collect(pass);

  const std::uint32_t tid = tel::thread_ordinal();
  const auto at = [&](std::uint64_t tick) {
    return wall0 + static_cast<std::uint64_t>(
                       static_cast<double>(tick - tick0) * ns_per_tick);
  };
  recorder.record_on("core.construct", t1, t2, tid);
  recorder.record_on("drive", t2, t3, tid);
  for (const FileSpan& span : spans) {
    const std::uint64_t start = at(span.start);
    const std::uint64_t end = at(span.end);
    recorder.record_on("file", start, end, tid);
    // Each layer's accumulated time in this file, laid end to end from
    // the file's start: per-chunk calls are summed, not spanned one by
    // one.
    std::uint64_t cursor = start;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (span.layers[l] == 0) continue;
      const std::uint64_t next = std::min(
          end, cursor + static_cast<std::uint64_t>(
                            static_cast<double>(span.layers[l]) *
                            ns_per_tick));
      recorder.record_on(layer_name(static_cast<Layer>(l)), cursor, next,
                         tid);
      cursor = next;
    }
  }
  recorder.record_on("net.drain", t3, t4, tid);
  recorder.disable();
  return pass;
}

}  // namespace perfbench
