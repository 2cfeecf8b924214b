// Each body below is a former bench_*.cpp main, re-based onto
// ScenarioContext with byte-identical stdout and CSV output — pinned by
// ScenarioEquivalence.MigratedScenariosMatchPinnedOutput.
#include "scenarios/bench_scenarios.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "accounting/cheque.hpp"
#include "accounting/pricing.hpp"
#include "common/csv.hpp"
#include "common/gini.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/token.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "engine/sim_time.hpp"
#include "harness/scenario.hpp"
#include "incentives/storage_game.hpp"
#include "net/link.hpp"
#include "overlay/churn.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/graph_metrics.hpp"
#include "overlay/iterative.hpp"

namespace fairswap::bench {

namespace {

using harness::banner;
using harness::print;
using harness::ScenarioContext;

/// Reads a scenario-specific count. A malformed value is reported like a
/// malformed shared key, and the caller exits 2; so is 0, which leaves
/// every rate and share the scenario reports undefined.
bool read_count(ScenarioContext& ctx, const char* key, std::uint64_t fallback,
                std::uint64_t& value) {
  value = ctx.args.get_or(key, fallback);
  const std::string parse_error = ctx.args.last_error();
  if (!parse_error.empty()) {
    print(ctx.os(), "error: %s\n", parse_error.c_str());
    return false;
  }
  if (value == 0) {
    print(ctx.os(), "error: %s must be at least 1\n", key);
    return false;
  }
  return true;
}

/// The 1000-node, 16-bit overlay the extensions below run on.
overlay::Topology build_paper_overlay(std::size_t k, std::uint64_t seed) {
  overlay::TopologyConfig tcfg;
  tcfg.node_count = 1000;
  tcfg.address_bits = 16;
  tcfg.buckets.k = k;
  Rng trng(seed);
  return overlay::Topology::build(tcfg, trng);
}

double mean_out_degree(const overlay::Topology& topo) {
  const auto degrees = overlay::out_degrees(topo);
  const std::uint64_t total =
      std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0});
  return static_cast<double>(total) / static_cast<double>(degrees.size());
}

// --- ablation_bucket0 ---------------------------------------------------
//
// Ablation: enlarging only bucket zero.
//
// §V: "it is interesting to see what happens in payment distribution if
// we only increase the k for a particular bucket, e.g., bucket zero."
// Zero-proximity payments flow to first hops, and for a uniformly chosen
// chunk the first hop is in bucket 0 about half the time — so widening
// only bucket 0 should recover much of the k=20 fairness gain at a
// fraction of the connection cost.
int scenario_ablation_bucket0(ScenarioContext& ctx) {
  banner(ctx.os(), "Ablation: increasing k for bucket 0 only (base k=4)");

  TextTable table({"k_bucket0", "Gini F2", "Gini F1", "avg forwarded",
                   "avg out-degree"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("k_bucket0", "gini_f2", "gini_f1", "avg_forwarded",
            "avg_out_degree");

  for (const std::size_t k0 : {4u, 8u, 16u, 20u, 32u}) {
    auto cfg = core::paper_config(4, 0.2, ctx.files, ctx.seed);
    cfg.topology.buckets.k_bucket0 = k0;
    cfg.label = "k=4, bucket0=" + std::to_string(k0);
    print(ctx.os(), "running %s...\n", cfg.label.c_str());
    ctx.os().flush();
    const auto topo = core::build_topology(cfg);
    const auto result = core::run_experiment(topo, cfg);
    const double avg_degree = mean_out_degree(topo);
    table.add_row({std::to_string(k0),
                   TextTable::num(result.fairness.gini_f2, 4),
                   TextTable::num(result.fairness.gini_f1, 4),
                   TextTable::num(result.avg_forwarded_chunks, 0),
                   TextTable::num(avg_degree, 1)});
    csv.cells(k0, result.fairness.gini_f2, result.fairness.gini_f1,
              result.avg_forwarded_chunks, avg_degree);
  }
  print(ctx.os(), "%s", table.render().c_str());
  core::write_text_file(ctx.out_dir + "/ablation_bucket0.csv", csv_text.str());
  print(ctx.os(), "wrote %s/ablation_bucket0.csv\n", ctx.out_dir.c_str());
  return 0;
}

// --- ablation_k_sweep ---------------------------------------------------
//
// Ablation: fairness vs overhead across a full sweep of bucket sizes.
//
// The paper evaluates k in {4, 20} and §V asks for the missing piece:
// "we demonstrated that with k = 20 the Gini coefficient approaches a
// smaller value, but we did not identify the produced overhead ... There
// should be a trade-off between the quantity of overhead generated and
// the amount of money received." This scenario sweeps k and reports both
// sides of that trade-off: fairness (Gini F1/F2) against connection count
// (open connections to maintain) and bandwidth (transmissions).
int scenario_ablation_k_sweep(ScenarioContext& ctx) {
  banner(ctx.os(), "Ablation: bucket-size sweep (fairness vs overhead)");

  TextTable table({"k", "Gini F2", "Gini F1", "avg forwarded", "avg out-degree",
                   "transmissions"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("k", "gini_f2", "gini_f1", "avg_forwarded", "avg_out_degree",
            "total_transmissions");

  for (const std::size_t k : {2u, 4u, 8u, 12u, 16u, 20u, 32u}) {
    auto cfg = core::paper_config(k, 0.2, ctx.files, ctx.seed);
    print(ctx.os(), "running k=%zu...\n", k);
    ctx.os().flush();
    const auto topo = core::build_topology(cfg);
    const auto result = core::run_experiment(topo, cfg);
    const double avg_degree = mean_out_degree(topo);

    table.add_row({std::to_string(k),
                   TextTable::num(result.fairness.gini_f2, 4),
                   TextTable::num(result.fairness.gini_f1, 4),
                   TextTable::num(result.avg_forwarded_chunks, 0),
                   TextTable::num(avg_degree, 1),
                   std::to_string(result.totals.total_transmissions)});
    csv.cells(k, result.fairness.gini_f2, result.fairness.gini_f1,
              result.avg_forwarded_chunks, avg_degree,
              result.totals.total_transmissions);
  }
  print(ctx.os(), "%s", table.render().c_str());
  print(ctx.os(),
        "\nreading: fairness improves monotonically with k while the "
        "connection-maintenance cost (out-degree) grows linearly — the "
        "trade-off §V predicts.\n");
  core::write_text_file(ctx.out_dir + "/ablation_k_sweep.csv", csv_text.str());
  print(ctx.os(), "wrote %s/ablation_k_sweep.csv\n", ctx.out_dir.c_str());
  return 0;
}

// --- churn --------------------------------------------------------------
//
// Extension: fairness and availability under churn.
//
// The paper's tables are static ("routing tables remain static for the
// entirety of the experiments") and its introduction lists "coping with
// the network churn" among the open challenges. This scenario fails a
// fraction of nodes mid-experiment, routes around them with lazy
// dead-peer discovery, and measures delivery success, detour overhead,
// and what the survivors' income distribution looks like — before and
// after table repair.
struct ChurnOutcome {
  std::size_t alive{0};
  double success_rate{0.0};
  double mean_hops{0.0};
  double gini_income{0.0};
  std::uint64_t dead_encounters{0};
};

ChurnOutcome run_churn_phase(overlay::DynamicOverlay& overlay, Rng& rng,
                             std::size_t requests) {
  const auto& topo = overlay.topology();
  std::vector<double> income(topo.node_count(), 0.0);
  const auto pricer = accounting::make_pricer("xor-distance");
  const auto dead_before = overlay.stats().dead_peer_encounters;
  std::uint64_t ok = 0;
  RunningStats hops;
  for (std::size_t i = 0; i < requests; ++i) {
    overlay::NodeIndex origin;
    do {
      origin = static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    } while (!overlay.alive(origin));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const auto route = overlay.route(origin, chunk);
    if (!route.reached_storer) continue;
    ++ok;
    hops.add(static_cast<double>(route.hops()));
    if (route.hops() > 0) {
      income[route.first_hop()] += static_cast<double>(
          pricer->price(topo.space(), topo.address_of(route.first_hop()), chunk)
              .base_units());
    }
  }
  ChurnOutcome out;
  out.alive = overlay.alive_count();
  out.success_rate = static_cast<double>(ok) / static_cast<double>(requests);
  out.mean_hops = hops.mean();
  // Income Gini over alive nodes only (dead nodes cannot earn).
  std::vector<double> alive_income;
  for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
    if (overlay.alive(n)) alive_income.push_back(income[n]);
  }
  out.gini_income = gini(std::span<const double>(alive_income));
  out.dead_encounters = overlay.stats().dead_peer_encounters - dead_before;
  return out;
}

int scenario_churn(ScenarioContext& ctx) {
  std::uint64_t requests = 0;
  if (!read_count(ctx, "requests", 200'000, requests)) return 2;

  banner(ctx.os(),
         "Extension: routing & fairness under churn (k=4, 1000 nodes)");

  TextTable table({"phase", "alive", "success", "mean hops", "Gini F2 (alive)",
                   "dead-peer hits"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("phase", "churn_share", "alive", "success_rate", "mean_hops",
            "gini_income_alive", "dead_peer_hits");

  for (const double churn : {0.1, 0.3, 0.5}) {
    overlay::DynamicOverlay overlay(build_paper_overlay(4, ctx.seed));
    Rng rng(ctx.seed + 1);

    const auto healthy = run_churn_phase(overlay, rng, requests);
    overlay.fail_random(static_cast<std::size_t>(churn * 1000), rng);
    const auto churned = run_churn_phase(overlay, rng, requests);
    overlay.repair_all(rng);
    const auto repaired = run_churn_phase(overlay, rng, requests);

    const std::string tag = TextTable::num(100 * churn, 0) + "% churn";
    auto emit = [&](const char* phase, const ChurnOutcome& o) {
      table.add_row({tag + ", " + phase,
                     std::to_string(o.alive),
                     TextTable::num(100 * o.success_rate, 2) + "%",
                     TextTable::num(o.mean_hops, 2),
                     TextTable::num(o.gini_income, 4),
                     std::to_string(o.dead_encounters)});
      csv.cells(phase, churn, o.alive, o.success_rate,
                o.mean_hops, o.gini_income, o.dead_encounters);
    };
    emit("healthy", healthy);
    emit("churned", churned);
    emit("repaired", repaired);
  }
  print(ctx.os(), "%s", table.render().c_str());
  print(ctx.os(),
        "\nreading: dead relays force detours (or failures) until "
        "tables are repaired; repair restores both availability and "
        "route length. The income Gini among survivors shifts because "
        "responsibility regions of failed nodes fall to their "
        "neighbors.\n");
  core::write_text_file(ctx.out_dir + "/churn.csv", csv_text.str());
  print(ctx.os(), "wrote %s/churn.csv\n", ctx.out_dir.c_str());
  return 0;
}

// --- latency ------------------------------------------------------------
//
// Extension: retrieval latency over per-link delays.
//
// The step-based simulator counts hops; this scenario gives every link a
// deterministic delay and reports the end-to-end retrieval latency
// distribution per bucket size. Links carry no contention, so a
// retrieval's latency is the round trip over its forwarding path: the
// request crosses each link and the chunk crosses it back. Messages count
// one request per hop plus, per hop, the delivery relayed back (or, on a
// dead end, the fail notice). It makes the §V connection-cost trade-off
// concrete from the *user's* side: larger k does not just spread rewards
// more fairly (Figs. 5/6), it shortens routes and cuts retrieval latency.

int scenario_latency(ScenarioContext& ctx) {
  std::uint64_t retrievals = 0;
  if (!read_count(ctx, "retrievals", 50'000, retrievals)) return 2;

  banner(ctx.os(), "Extension: retrieval latency distribution (message-level)");

  TextTable table({"k", "success", "mean hops", "mean latency", "p50", "p90",
                   "p99", "messages"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("k", "success_rate", "mean_hops", "mean_latency", "p50", "p90",
            "p99", "messages");

  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    const auto topo = build_paper_overlay(k, ctx.seed);
    const overlay::ForwardingRouter router(topo);
    const net::LatencyModel links({.base = 10,    // ~10ms propagation floor
                                   .jitter = 40,  // links up to 50ms
                                   .seed = ctx.seed});

    std::vector<double> latencies;
    std::uint64_t hop_sum = 0;
    std::uint64_t messages = 0;
    overlay::Route route;
    Rng rng(ctx.seed + k);
    for (std::uint64_t i = 0; i < retrievals; ++i) {
      const auto origin =
          static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
      const Address chunk{
          static_cast<AddressValue>(rng.next_below(topo.space().size()))};
      router.route_into(origin, chunk, route);
      messages += 2 * route.hops();
      if (!route.reached_storer) continue;
      // The chunk returns over the request's links: twice the path delay.
      engine::SimTime one_way = 0;
      for (std::size_t j = 1; j < route.path.size(); ++j) {
        one_way += links.latency(route.path[j - 1], route.path[j]);
      }
      latencies.push_back(static_cast<double>(2 * one_way));
      hop_sum += route.hops();
    }
    const std::uint64_t successes = latencies.size();
    const double mean_hops =
        successes == 0 ? 0.0
                       : static_cast<double>(hop_sum) /
                             static_cast<double>(successes);
    const Summary s = summarize(std::span<const double>(latencies));
    table.add_row({std::to_string(k),
                   TextTable::num(100.0 * static_cast<double>(successes) /
                                      static_cast<double>(retrievals), 2) + "%",
                   TextTable::num(mean_hops, 2), TextTable::num(s.mean, 1),
                   TextTable::num(s.median, 0), TextTable::num(s.p90, 0),
                   TextTable::num(s.p99, 0), std::to_string(messages)});
    csv.cells(k,
              static_cast<double>(successes) / static_cast<double>(retrievals),
              mean_hops, s.mean, s.median, s.p90, s.p99, messages);
  }
  print(ctx.os(), "%s", table.render().c_str());
  print(ctx.os(),
        "\nreading: k=20 cuts roughly one hop from the average route, "
        "which shows up directly as a ~1.4x lower mean retrieval "
        "latency — the user-facing benefit that pairs with the "
        "fairness gain of Figs. 5/6.\n");
  core::write_text_file(ctx.out_dir + "/latency.csv", csv_text.str());
  print(ctx.os(), "wrote %s/latency.csv\n", ctx.out_dir.c_str());
  return 0;
}

// --- overhead -----------------------------------------------------------
//
// Extension: overhead measurement (§V future-work thread 1).
//
// "We demonstrated that with k=20 the Gini coefficient approaches a
// smaller value, but we did not identify the produced overhead in terms
// of extra bandwidth consumption. There should be a trade-off between the
// quantity of overhead generated and the amount of money received."
//
// This scenario quantifies, for every paper configuration:
//  * total bandwidth (chunk transmissions) vs paid bandwidth,
//  * the unpaid-forwarding overhang (SWAP debt left to amortization),
//  * income per transmitted chunk — the "money received per overhead",
//  * the settlement economics: cashing cheques under a transaction fee
//    (when is a reward worth collecting at all?).
int scenario_overhead(ScenarioContext& ctx) {
  banner(ctx.os(), "Extension: overhead vs reward (the SWAP trade-off)");
  const auto results = harness::run_paper_grid(ctx);

  TextTable table({"configuration", "transmissions", "paid serves",
                   "paid share", "unsettled debt (units)",
                   "income / transmission"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("label", "transmissions", "paid_serves", "paid_share",
            "outstanding_debt", "income_per_transmission");
  for (const auto& r : results) {
    std::uint64_t paid = 0;
    for (const auto v : r.first_hop_per_node) paid += v;
    const double paid_share =
        static_cast<double>(paid) /
        static_cast<double>(r.totals.total_transmissions);
    const double income_per_tx =
        r.total_income / static_cast<double>(r.totals.total_transmissions);
    table.add_row({r.config.label, std::to_string(r.totals.total_transmissions),
                   std::to_string(paid), TextTable::num(paid_share, 3),
                   TextTable::num(r.outstanding_debt, 0),
                   TextTable::num(income_per_tx, 1)});
    csv.cells(r.config.label, r.totals.total_transmissions, paid, paid_share,
              r.outstanding_debt, income_per_tx);
  }
  print(ctx.os(), "%s", table.render().c_str());
  print(ctx.os(),
        "\nreading: only the first hop of every route is paid; with "
        "k=20 routes are shorter, so a larger share of transmissions "
        "is paid work — more money per unit of bandwidth overhead.\n");

  // Settlement economics: distribute each node's income as one cumulative
  // cheque and cash it under increasing transaction fees (§V: "the
  // transaction cost for receiving the reward might be more than the
  // reward amount").
  banner(ctx.os(), "Cheque-cashing economics under transaction fees");
  TextTable fee_table({"configuration", "tx fee (units)",
                       "nodes with income", "nodes better off cashing"});
  for (const auto& r : results) {
    for (const double fee_frac : {0.0, 0.001, 0.01, 0.1}) {
      const double mean_income =
          r.total_income /
          static_cast<double>(
              r.fairness.earning_nodes ? r.fairness.earning_nodes : 1);
      const Token fee(static_cast<Token::rep>(mean_income * fee_frac));
      accounting::SettlementChain chain(fee);
      std::size_t earning = 0;
      std::size_t profitable = 0;
      for (std::size_t n = 0; n < r.income_per_node.size(); ++n) {
        const auto income = static_cast<Token::rep>(r.income_per_node[n]);
        if (income <= 0) continue;
        ++earning;
        accounting::Chequebook book(static_cast<accounting::NodeIndex>(n));
        book.issue(0, Token(income));
        const auto cashed = chain.cash(*book.latest(0));
        if (cashed && cashed->net > Token(0)) ++profitable;
      }
      fee_table.add_row({r.config.label,
                         std::to_string(fee.base_units()),
                         std::to_string(earning), std::to_string(profitable)});
    }
  }
  print(ctx.os(), "%s", fee_table.render().c_str());

  core::write_text_file(ctx.out_dir + "/overhead.csv", csv_text.str());
  print(ctx.os(), "wrote %s/overhead.csv\n", ctx.out_dir.c_str());
  return 0;
}

// --- privacy ------------------------------------------------------------
//
// Baseline comparison: forwarding Kademlia vs classic iterative Kademlia.
//
// §III-A motivates Swarm's forwarding scheme: "For the lookup procedure in
// Kademlia, the node that generated the request repeatedly contacts other
// nodes ... In this way, all involved nodes learn the requester's
// identity. Forwarding Kademlia improves privacy and prevents censorship,
// since nodes cannot distinguish the originator of a request."
//
// This scenario quantifies that trade across bucket sizes: how many nodes
// learn the requester per lookup (identity exposure), how many RPCs each
// scheme costs, and whether both find the storer.
int scenario_privacy(ScenarioContext& ctx) {
  std::uint64_t lookups = 0;
  if (!read_count(ctx, "lookups", 20'000, lookups)) return 2;

  banner(ctx.os(),
         "Baseline: forwarding vs iterative Kademlia (privacy & cost)");

  TextTable table({"scheme", "k", "success", "identity exposure / lookup",
                   "messages / lookup"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("scheme", "k", "success_rate", "exposure_mean", "messages_mean");

  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    const auto topo = build_paper_overlay(k, ctx.seed);
    const overlay::ForwardingRouter router(topo);
    const overlay::IterativeLookup lookup(topo);

    RunningStats fw_exposure, fw_messages, it_exposure, it_messages;
    std::uint64_t fw_ok = 0, it_ok = 0;
    Rng rng(ctx.seed + k);
    for (std::uint64_t i = 0; i < lookups; ++i) {
      const auto origin =
          static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
      const Address chunk{
          static_cast<AddressValue>(rng.next_below(topo.space().size()))};

      const auto route = router.route(origin, chunk);
      if (route.reached_storer) ++fw_ok;
      // Forwarding: only the first hop ever talks to the requester, and it
      // cannot tell a requester from a relay.
      fw_exposure.add(0.0);
      fw_messages.add(static_cast<double>(2 * route.hops()));

      const auto result = lookup.lookup(origin, chunk);
      if (result.found_storer) ++it_ok;
      it_exposure.add(static_cast<double>(result.contacted.size()));
      it_messages.add(static_cast<double>(result.messages));
    }

    auto row = [&](const char* scheme, std::uint64_t ok,
                   const RunningStats& exposure, const RunningStats& msgs) {
      table.add_row({scheme, std::to_string(k),
                     TextTable::num(100.0 * static_cast<double>(ok) /
                                        static_cast<double>(lookups), 2) + "%",
                     TextTable::num(exposure.mean(), 2),
                     TextTable::num(msgs.mean(), 2)});
      csv.cells(scheme, k,
                static_cast<double>(ok) / static_cast<double>(lookups),
                exposure.mean(), msgs.mean());
    };
    row("forwarding", fw_ok, fw_exposure, fw_messages);
    row("iterative", it_ok, it_exposure, it_messages);
  }
  print(ctx.os(), "%s", table.render().c_str());
  print(ctx.os(),
        "\nreading: iterative lookups expose the requester to every "
        "contacted node (~alpha x rounds of them); forwarding exposes "
        "it to none — relays cannot distinguish an originator from "
        "another relay. The price is per-hop forwarding work, which is "
        "exactly what the bandwidth incentive pays for.\n");
  core::write_text_file(ctx.out_dir + "/privacy.csv", csv_text.str());
  print(ctx.os(), "wrote %s/privacy.csv\n", ctx.out_dir.c_str());
  return 0;
}

// --- storage_game -------------------------------------------------------
//
// Extension: storage incentives (§V future-work thread 3).
//
// "While creators of these networks claim that the storage incentive
// makes up the majority of the profit for peers contributing to the
// network, having not just the bandwidth incentives simulated but also
// the storage incentives appears needed to complete the simulation."
//
// We run the redistribution game (stake-weighted lottery within the
// anchor neighborhood, pot paid only against a valid BMT proof of
// custody) and measure the storage-reward income distribution with the
// same F2 metrology as the bandwidth scenarios:
//  * depth sweep — deeper (smaller) neighborhoods concentrate rewards;
//  * cheater sweep — unfaithful nodes get slashed and the honest nodes
//    absorb the rolled-over pots.
int scenario_storage_game(ScenarioContext& ctx) {
  std::uint64_t rounds = 0;
  if (!read_count(ctx, "rounds", 20'000, rounds)) return 2;

  const auto topo = build_paper_overlay(4, ctx.seed);

  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("sweep", "value", "gini_storage_rewards", "paid_rounds",
            "proofs_failed");

  banner(ctx.os(), "Storage incentives: neighborhood depth vs reward fairness");
  TextTable depth_table({"depth", "avg neighborhood", "paid rounds",
                         "Gini (storage rewards)"});
  for (const int depth : {0, 2, 4, 6, 8}) {
    incentives::StorageGameConfig gcfg;
    gcfg.depth = depth;
    incentives::StorageGame game(topo, gcfg);
    for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
      game.set_stake(n, Token::whole(1));
    }
    Rng rng(ctx.seed + static_cast<std::uint64_t>(depth));
    // Estimate average neighborhood size on a small sample.
    double hood = 0;
    for (int s = 0; s < 64; ++s) {
      hood += static_cast<double>(
          game.neighborhood(
                  Address{static_cast<AddressValue>(rng.next_below(
                      topo.space().size()))})
              .size());
    }
    hood /= 64;
    game.play(rounds, rng);
    const double g = gini(std::span<const double>(game.rewards_double()));
    depth_table.add_row({std::to_string(depth), TextTable::num(hood, 1),
                         std::to_string(game.rounds_paid()),
                         TextTable::num(g, 4)});
    csv.cells("depth", depth, g, game.rounds_paid(), game.proofs_failed());
  }
  print(ctx.os(), "%s", depth_table.render().c_str());

  banner(ctx.os(),
         "Storage incentives: cheating storers (failed custody proofs)");
  TextTable cheat_table({"cheater share", "paid rounds", "proofs failed",
                         "honest-node reward share"});
  for (const double cheaters : {0.0, 0.1, 0.3, 0.5}) {
    incentives::StorageGameConfig gcfg;
    gcfg.depth = 4;
    incentives::StorageGame game(topo, gcfg);
    Rng rng(ctx.seed + 100 + static_cast<std::uint64_t>(cheaters * 100));
    std::vector<std::uint8_t> is_cheater(topo.node_count(), 0);
    for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
      game.set_stake(n, Token::whole(1));
      if (rng.chance(cheaters)) {
        game.set_faithful(n, false);
        is_cheater[n] = 1;
      }
    }
    game.play(rounds, rng);
    Token honest;
    Token total;
    for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
      total += game.rewards()[n];
      if (!is_cheater[n]) honest += game.rewards()[n];
    }
    const double honest_share =
        total.is_zero() ? 1.0
                        : static_cast<double>(honest.base_units()) /
                              static_cast<double>(total.base_units());
    cheat_table.add_row({TextTable::num(cheaters, 2),
                         std::to_string(game.rounds_paid()),
                         std::to_string(game.proofs_failed()),
                         TextTable::num(100 * honest_share, 2) + "%"});
    csv.cells("cheaters", cheaters,
              gini(std::span<const double>(game.rewards_double())),
              game.rounds_paid(), game.proofs_failed());
  }
  print(ctx.os(), "%s", cheat_table.render().c_str());
  print(ctx.os(),
        "\nreading: proofs of custody make cheating unprofitable — "
        "every reward token lands on faithful storers and cheaters "
        "bleed stake through slashing. Reward concentration rises "
        "with depth because neighborhood sizes (and thus win odds) "
        "are address-gap lotteries.\n");
  core::write_text_file(ctx.out_dir + "/storage_game.csv", csv_text.str());
  print(ctx.os(), "wrote %s/storage_game.csv\n", ctx.out_dir.c_str());
  return 0;
}

}  // namespace

void register_bench_scenarios() {
  static const bool registered = [] {
    harness::register_builtin_scenarios();
    harness::ScenarioRegistry& registry = harness::ScenarioRegistry::instance();
    registry.add({"ablation_bucket0",
                  "widen bucket 0 only (base k=4): fairness vs out-degree",
                  2'000, &scenario_ablation_bucket0, {}});
    registry.add({"ablation_k_sweep",
                  "bucket-size sweep: fairness vs connection overhead",
                  2'000, &scenario_ablation_k_sweep, {}});
    registry.add({"churn",
                  "routing and income fairness under node churn (requests=N)",
                  10'000, &scenario_churn, {"requests"}});
    registry.add({"latency",
                  "retrieval latency over link delays per k (retrievals=N)",
                  10'000, &scenario_latency, {"retrievals"}});
    registry.add({"overhead",
                  "paid vs total bandwidth and cheque-cashing fees (2x2 grid)",
                  2'000, &scenario_overhead, {}});
    registry.add({"privacy",
                  "forwarding vs iterative Kademlia exposure (lookups=N)",
                  10'000, &scenario_privacy, {"lookups"}});
    registry.add({"storage_game",
                  "storage lottery: depth and cheater sweeps (rounds=N)",
                  10'000, &scenario_storage_game, {"rounds"}});
    return true;
  }();
  (void)registered;
}

}  // namespace fairswap::bench
