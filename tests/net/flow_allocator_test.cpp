// Property/fuzz suite for the max-min fair allocator (ISSUE 6): over
// random link graphs and flow sets, (a) no link exceeds its capacity,
// (b) every flow is bottlenecked at a saturated link or its own cap,
// (c) the allocation is invariant to flow insertion order at full
// floating-point precision, (d) rates conserve per link — sum <= capacity
// with equality on saturated links, (e) the allocator reproduces the plain
// progressive-filling reference (reference_allocator.hpp) bit for bit
// under interleaved add / remove / allocate / clear sequences.
#include "net/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "reference_allocator.hpp"

namespace fairswap::net {
namespace {

constexpr double kTol = 1e-9;

// --- deterministic unit cases -------------------------------------------

TEST(FairShareNetwork, SingleFlowGetsTheWholeLink) {
  FairShareNetwork net;
  const LinkId l = net.add_link(2.5);
  const FlowId f = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(f), 2.5);
  EXPECT_TRUE(net.link_saturated(l));
}

TEST(FairShareNetwork, EqualSharesOnASharedLink) {
  FairShareNetwork net;
  const LinkId l = net.add_link(3.0);
  const FlowId a = net.add_flow(std::vector<LinkId>{l});
  const FlowId b = net.add_flow(std::vector<LinkId>{l});
  const FlowId c = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(a), 1.0);
  EXPECT_DOUBLE_EQ(net.rate(b), 1.0);
  EXPECT_DOUBLE_EQ(net.rate(c), 1.0);
}

TEST(FairShareNetwork, WaterFillingReleasesSlackToUnbottleneckedFlows) {
  // Classic two-link example: flow A crosses the narrow link only, flow B
  // crosses both. A and B split the narrow link; B is then capped there,
  // and a third flow on the wide link alone soaks up the rest.
  FairShareNetwork net;
  const LinkId narrow = net.add_link(1.0);
  const LinkId wide = net.add_link(10.0);
  const FlowId a = net.add_flow(std::vector<LinkId>{narrow});
  const FlowId b = net.add_flow(std::vector<LinkId>{narrow, wide});
  const FlowId c = net.add_flow(std::vector<LinkId>{wide});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(a), 0.5);
  EXPECT_DOUBLE_EQ(net.rate(b), 0.5);
  EXPECT_DOUBLE_EQ(net.rate(c), 9.5);
  EXPECT_TRUE(net.link_saturated(narrow));
  EXPECT_TRUE(net.link_saturated(wide));
}

TEST(FairShareNetwork, RateCapFreezesBelowTheFairShare) {
  FairShareNetwork net;
  const LinkId l = net.add_link(4.0);
  const FlowId slow = net.add_flow(std::vector<LinkId>{l}, /*rate_cap=*/0.5);
  const FlowId fast = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(slow), 0.5);
  EXPECT_DOUBLE_EQ(net.rate(fast), 3.5);
}

TEST(FairShareNetwork, RemoveFlowRecyclesSlotAndFreesBandwidth) {
  FairShareNetwork net;
  const LinkId l = net.add_link(2.0);
  const FlowId a = net.add_flow(std::vector<LinkId>{l});
  const FlowId b = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(a), 1.0);
  net.remove_flow(a);
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(b), 2.0);
  const FlowId c = net.add_flow(std::vector<LinkId>{l});
  EXPECT_EQ(c, a);  // slot recycled
  EXPECT_EQ(net.active_count(), 2u);
}

TEST(FairShareNetwork, FlowWithoutLinksOrCapIsRejected) {
  FairShareNetwork net;
  EXPECT_THROW(net.add_flow(std::vector<LinkId>{}), std::invalid_argument);
  const FlowId f =
      net.add_flow(std::vector<LinkId>{}, /*rate_cap=*/1.25);
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(f), 1.25);
}

TEST(FairShareNetwork, ZeroCapacityLinkStarvesItsFlows) {
  FairShareNetwork net;
  const LinkId dead = net.add_link(0.0);
  const LinkId live = net.add_link(1.0);
  const FlowId starved = net.add_flow(std::vector<LinkId>{dead, live});
  const FlowId fine = net.add_flow(std::vector<LinkId>{live});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(starved), 0.0);
  EXPECT_DOUBLE_EQ(net.rate(fine), 1.0);
}

TEST(FairShareNetwork, NegativeOrNanCapacityIsRejected) {
  FairShareNetwork net;
  EXPECT_THROW(net.add_link(-1.0), std::invalid_argument);
  // A NaN link never saturates, so allocate() would spin forever.
  EXPECT_THROW(net.add_link(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(net.link_count(), 0u);
}

// --- property / fuzz ----------------------------------------------------

struct RandomCase {
  std::vector<double> capacities;
  /// Per flow: links crossed + optional cap (infinity = none).
  std::vector<std::pair<std::vector<LinkId>, double>> flows;
};

RandomCase random_case(Rng& rng) {
  RandomCase c;
  const std::size_t links = 1 + rng.next_below(20);
  c.capacities.reserve(links);
  for (std::size_t l = 0; l < links; ++l) {
    // 0.1 .. ~10 with occasional zero-capacity links.
    const bool dead = rng.next_below(20) == 0;
    c.capacities.push_back(
        dead ? 0.0
             : 0.1 + static_cast<double>(rng.next_below(1000)) / 100.0);
  }
  const std::size_t flows = 1 + rng.next_below(40);
  for (std::size_t f = 0; f < flows; ++f) {
    std::vector<LinkId> crossed;
    const std::size_t count = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < count; ++i) {
      crossed.push_back(static_cast<LinkId>(rng.next_below(links)));
    }
    const bool capped = rng.next_below(3) == 0;
    const double cap =
        capped ? 0.05 + static_cast<double>(rng.next_below(500)) / 100.0
               : FairShareNetwork::kUncapped;
    c.flows.emplace_back(std::move(crossed), cap);
  }
  return c;
}

/// Builds a network holding the case's flows added in `order` and
/// allocates. Returns the rate of every *case* flow (order-independent
/// indexing).
std::vector<double> allocate_in_order(const RandomCase& c,
                                      const std::vector<std::size_t>& order) {
  FairShareNetwork net;
  for (const double cap : c.capacities) net.add_link(cap);
  std::vector<double> rates(c.flows.size(), -1.0);
  std::vector<FlowId> slot(c.flows.size());
  for (const std::size_t f : order) {
    slot[f] = net.add_flow(c.flows[f].first, c.flows[f].second);
  }
  net.allocate();
  for (std::size_t f = 0; f < c.flows.size(); ++f) {
    rates[f] = net.rate(slot[f]);
  }
  return rates;
}

TEST(FairShareNetworkProperty, RandomCasesSatisfyMaxMinInvariants) {
  Rng rng(0xF10Fu);
  for (int iter = 0; iter < 200; ++iter) {
    const RandomCase c = random_case(rng);

    FairShareNetwork net;
    for (const double cap : c.capacities) net.add_link(cap);
    std::vector<FlowId> slot(c.flows.size());
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      slot[f] = net.add_flow(c.flows[f].first, c.flows[f].second);
    }
    net.allocate();

    // Per-link rate sums.
    std::vector<double> used(c.capacities.size(), 0.0);
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      for (const LinkId l : net.flow_links(slot[f])) {
        used[l] += net.rate(slot[f]);
      }
    }

    for (std::size_t l = 0; l < c.capacities.size(); ++l) {
      // (a) no link over capacity.
      EXPECT_LE(used[l], c.capacities[l] + kTol) << "iter " << iter;
      // (d) equality on saturated links.
      if (net.link_saturated(static_cast<LinkId>(l))) {
        EXPECT_NEAR(used[l], c.capacities[l], kTol) << "iter " << iter;
      }
    }

    // (b) every flow is bottlenecked: rate == own cap, or it crosses a
    // saturated link.
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      const double rate = net.rate(slot[f]);
      EXPECT_GE(rate, 0.0);
      const bool at_cap = c.flows[f].second != FairShareNetwork::kUncapped &&
                          std::abs(rate - c.flows[f].second) <= kTol;
      bool at_link = false;
      for (const LinkId l : net.flow_links(slot[f])) {
        at_link = at_link || net.link_saturated(l);
      }
      EXPECT_TRUE(at_cap || at_link)
          << "iter " << iter << ": flow " << f << " rate " << rate
          << " is not bottlenecked anywhere";
    }
  }
}

TEST(FairShareNetworkProperty, AllocationInvariantToInsertionOrderExactly) {
  Rng rng(0xBEEFu);
  for (int iter = 0; iter < 100; ++iter) {
    const RandomCase c = random_case(rng);

    std::vector<std::size_t> order(c.flows.size());
    std::iota(order.begin(), order.end(), 0);
    const std::vector<double> forward = allocate_in_order(c, order);

    std::reverse(order.begin(), order.end());
    const std::vector<double> reverse = allocate_in_order(c, order);

    // Deterministic shuffle from the fuzz stream.
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    const std::vector<double> shuffled = allocate_in_order(c, order);

    // Bit-identical, not approximately equal: the allocator's arithmetic
    // runs over per-link aggregates in canonical link order, so the
    // result cannot depend on which flow arrived first.
    EXPECT_EQ(forward, reverse) << "iter " << iter;
    EXPECT_EQ(forward, shuffled) << "iter " << iter;
  }
}

TEST(FairShareNetworkProperty, ReallocationAfterRemovalsKeepsInvariants) {
  Rng rng(0xCAFEu);
  for (int iter = 0; iter < 50; ++iter) {
    const RandomCase c = random_case(rng);
    FairShareNetwork net;
    for (const double cap : c.capacities) net.add_link(cap);
    std::vector<FlowId> slot(c.flows.size());
    std::vector<bool> alive(c.flows.size(), true);
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      slot[f] = net.add_flow(c.flows[f].first, c.flows[f].second);
    }
    net.allocate();

    // Remove a random half and reallocate.
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      if (rng.next_below(2) == 0) {
        net.remove_flow(slot[f]);
        alive[f] = false;
      }
    }
    net.allocate();

    std::vector<double> used(c.capacities.size(), 0.0);
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      if (!alive[f]) continue;
      for (const LinkId l : net.flow_links(slot[f])) {
        used[l] += net.rate(slot[f]);
      }
    }
    for (std::size_t l = 0; l < c.capacities.size(); ++l) {
      EXPECT_LE(used[l], c.capacities[l] + kTol) << "iter " << iter;
      if (net.link_saturated(static_cast<LinkId>(l))) {
        EXPECT_NEAR(used[l], c.capacities[l], kTol) << "iter " << iter;
      }
    }
  }
}

// --- differential oracle ------------------------------------------------

/// One FairShareNetwork and one reference driven through the same
/// operations; allocate_and_compare() checks they agree to the bit.
class Differential {
 public:
  explicit Differential(const std::vector<double>& capacities) {
    for (const double cap : capacities) {
      EXPECT_EQ(net_.add_link(cap), ref_.add_link(cap));
    }
  }

  void add(const std::vector<LinkId>& links, double cap) {
    const FlowId a = net_.add_flow(links, cap);
    const FlowId b = ref_.add_flow(links, cap);
    ASSERT_EQ(a, b);
    live_.push_back(a);
  }
  void remove(std::size_t i) {
    net_.remove_flow(live_[i]);
    ref_.remove_flow(live_[i]);
    live_[i] = live_.back();
    live_.pop_back();
  }
  void clear() {
    net_.clear_flows();
    ref_.clear_flows();
    live_.clear();
  }
  [[nodiscard]] std::size_t live() const { return live_.size(); }

  void allocate_and_compare(int iter, int step) {
    net_.allocate();
    ref_.allocate();
    std::vector<FlowId> active;
    net_.for_each_active([&](FlowId f) { active.push_back(f); });
    ASSERT_EQ(active, ref_.active_flows());
    for (const FlowId f : active) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(net_.rate(f)),
                std::bit_cast<std::uint64_t>(ref_.rate(f)))
          << "iter " << iter << " step " << step << " flow " << f << ": "
          << net_.rate(f) << " vs reference " << ref_.rate(f);
    }
    for (LinkId l = 0; l < ref_.link_count(); ++l) {
      ASSERT_EQ(net_.link_saturated(l), ref_.link_saturated(l))
          << "iter " << iter << " step " << step << " link " << l;
    }
    ASSERT_EQ(net_.ever_saturated_count(), ref_.ever_saturated_count())
        << "iter " << iter << " step " << step;
  }

 private:
  FairShareNetwork net_;
  oracle::ReferenceFairShareNetwork ref_;
  std::vector<FlowId> live_;
};

/// Link capacities drawn so that shares tie often: whole and half units,
/// a tenth grid whose sums round, some zero-capacity links and a few
/// unbounded ones.
double random_capacity(Rng& rng) {
  if (rng.next_below(40) == 0) return std::numeric_limits<double>::infinity();
  switch (rng.next_below(4)) {
    case 0:
      return static_cast<double>(rng.next_below(5)) * 0.5;  // 0 included
    case 1:
      return static_cast<double>(1 + rng.next_below(100)) / 10.0;
    case 2:
      return rng.next_below(6) == 0 ? 0.0 : 1.0;
    default:
      return 0.05 * static_cast<double>(1 + rng.next_below(40)) / 3.0;
  }
}

TEST(FairShareNetworkOracle, MatchesReferenceBitForBitUnderChurn) {
  Rng rng(0x0AC1Eu);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<double> capacities(1 + rng.next_below(40));
    for (double& cap : capacities) cap = random_capacity(rng);
    const auto link_count = static_cast<LinkId>(capacities.size());
    Differential diff(capacities);

    const int steps = 10 + static_cast<int>(rng.next_below(60));
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t op = rng.next_below(100);
      if (op < 55 || diff.live() == 0) {
        std::vector<LinkId> links;
        const std::size_t count = rng.next_below(7);  // 0 needs a cap
        for (std::size_t i = 0; i < count; ++i) {
          links.push_back(static_cast<LinkId>(rng.next_below(link_count)));
          // Duplicate ids are deduplicated by add_flow.
          if (rng.next_below(5) == 0) links.push_back(links.back());
        }
        double cap = FairShareNetwork::kUncapped;
        if (links.empty() || rng.next_below(3) == 0) {
          cap = rng.next_below(8) == 0
                    ? 0.0
                    : static_cast<double>(1 + rng.next_below(30)) / 8.0;
        }
        diff.add(links, cap);
      } else if (op < 85) {
        diff.remove(rng.next_below(diff.live()));
      } else if (op < 87) {
        diff.clear();
      }
      // Reallocate after most operations, so several adds or removes
      // sometimes land between two allocate() calls.
      if (rng.next_below(4) != 0) diff.allocate_and_compare(iter, step);
    }
    diff.allocate_and_compare(iter, steps);
  }
}

TEST(FairShareNetworkOracle, MatchesReferenceOnLargeRandomCases) {
  // The property suite's generator at larger sizes, each case allocated,
  // half-drained and reallocated on the same pair of objects.
  Rng rng(0x0AC1E2u);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<double> capacities(20 + rng.next_below(200));
    for (double& cap : capacities) cap = random_capacity(rng);
    Differential diff(capacities);
    const std::size_t flows = 50 + rng.next_below(400);
    for (std::size_t f = 0; f < flows; ++f) {
      std::vector<LinkId> links;
      const std::size_t count = 1 + rng.next_below(9);
      for (std::size_t i = 0; i < count; ++i) {
        links.push_back(
            static_cast<LinkId>(rng.next_below(capacities.size())));
      }
      const double cap =
          rng.next_below(4) == 0
              ? 0.05 + static_cast<double>(rng.next_below(500)) / 100.0
              : FairShareNetwork::kUncapped;
      diff.add(links, cap);
    }
    diff.allocate_and_compare(iter, 0);
    for (std::size_t i = diff.live() / 2; i > 0; --i) {
      diff.remove(rng.next_below(diff.live()));
    }
    diff.allocate_and_compare(iter, 1);
  }
}

}  // namespace
}  // namespace fairswap::net
