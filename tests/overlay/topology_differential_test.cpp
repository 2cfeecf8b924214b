// Topology::build against the all-pairs oracle (reference_topology.cpp):
// the prefix-pool builder must give the same addresses, the same bucket
// contents in the same order, the same compiled arrays and leave the
// topology RNG at the same point, on every configuration shape the
// simulator uses and on the degenerate ones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/topology.hpp"
#include "reference_topology.hpp"

namespace fairswap::overlay {
namespace {

struct Case {
  std::size_t nodes;
  int bits;
  std::size_t k;
  std::size_t k_bucket0 = 0;
  bool neighborhood = false;
  std::uint64_t seed = 1;
};

std::string describe(const Case& c) {
  return std::to_string(c.nodes) + " nodes / " + std::to_string(c.bits) +
         " bits, k=" + std::to_string(c.k) +
         " k0=" + std::to_string(c.k_bucket0) +
         (c.neighborhood ? " +neighborhood" : "") +
         " seed=" + std::to_string(c.seed);
}

/// The storer of `target` by definition: the XOR-minimum over all nodes.
NodeIndex brute_force_storer(const std::vector<Address>& addresses,
                             Address target) {
  NodeIndex best = 0;
  for (NodeIndex i = 1; i < addresses.size(); ++i) {
    if (xor_distance(addresses[i], target) <
        xor_distance(addresses[best], target)) {
      best = i;
    }
  }
  return best;
}

void expect_matches_oracle(const Case& c) {
  SCOPED_TRACE(describe(c));
  TopologyConfig cfg;
  cfg.node_count = c.nodes;
  cfg.address_bits = c.bits;
  cfg.buckets.k = c.k;
  cfg.buckets.k_bucket0 = c.k_bucket0;
  cfg.neighborhood_connect = c.neighborhood;
  cfg.neighborhood_min_peers = 4;

  Rng built_rng(c.seed);
  Rng oracle_rng(c.seed);
  const Topology topo = Topology::build(cfg, built_rng);
  const auto ref = oracle::build_reference_topology(cfg, oracle_rng);

  // The next draw proves both consumed the same number of draws.
  EXPECT_EQ(built_rng.next(), oracle_rng.next());

  ASSERT_EQ(topo.node_count(), ref.addresses.size());
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    ASSERT_EQ(topo.address_of(i), ref.addresses[i]) << "node " << i;
  }

  std::size_t ref_edges = 0;
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    for (int b = 0; b < topo.space().bits(); ++b) {
      const auto got = topo.table(i).bucket(b);
      const auto want = ref.tables[i].bucket(b);
      ASSERT_EQ(std::vector<Address>(got.begin(), got.end()),
                std::vector<Address>(want.begin(), want.end()))
          << "node " << i << " bucket " << b;
    }
    ref_edges += ref.tables[i].size();
  }
  EXPECT_EQ(topo.edge_count(), ref_edges);

  // Compiled arrays: each node's slab starts where the previous ends and
  // lists its peers bucket by bucket, in table order.
  const CompiledRouter& compiled = topo.compiled();
  ASSERT_EQ(compiled.edge_count(), ref_edges);
  EdgeId next_edge = 0;
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    const auto [begin, end] = compiled.node_edge_range(i);
    ASSERT_EQ(begin, next_edge) << "node " << i;
    ASSERT_EQ(end - begin, ref.tables[i].size()) << "node " << i;
    EdgeId e = begin;
    for (const Address peer : ref.tables[i].all_peers()) {
      ASSERT_EQ(ref.addresses[compiled.edge_target(e)], peer)
          << "node " << i << " edge " << e;
      ++e;
    }
    next_edge = end;
  }

  // Storer table: every address of a dense space, node addresses and a
  // sample of targets in a wide one.
  if (topo.space().bits() <= CompiledRouter::kDenseStorerBits) {
    const ClosestNodeIndex trie(topo.space(), ref.addresses);
    for (std::uint64_t v = 0; v < topo.space().size(); ++v) {
      const Address t{static_cast<AddressValue>(v)};
      ASSERT_EQ(compiled.storer_of(t), trie.closest_index(t)) << "target " << v;
    }
  } else {
    Rng targets(c.seed + 7);
    for (int i = 0; i < 2000; ++i) {
      const Address t{
          static_cast<AddressValue>(targets.next_below(topo.space().size()))};
      ASSERT_EQ(compiled.storer_of(t), brute_force_storer(ref.addresses, t))
          << "target " << t.v;
    }
  }
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    ASSERT_EQ(topo.closest_node(ref.addresses[i]), i);
  }
}

TEST(TopologyOracle, SingleNode) {
  expect_matches_oracle({1, 8, 4});
  expect_matches_oracle({1, 1, 4});
}

TEST(TopologyOracle, FullOccupancy) {
  expect_matches_oracle({256, 8, 4});
  expect_matches_oracle({1024, 10, 20, 0, false, 3});
}

TEST(TopologyOracle, TinySpaces) {
  for (int bits = 1; bits <= 4; ++bits) {
    const std::size_t slots = std::size_t{1} << bits;
    for (std::size_t nodes :
         {std::size_t{1}, std::size_t{2}, slots / 2 + 1, slots}) {
      for (std::size_t k : {std::size_t{1}, std::size_t{4}}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
          expect_matches_oracle({nodes, bits, k, 0, false, seed});
        }
      }
    }
  }
}

TEST(TopologyOracle, PaperNetworkAtBothK) {
  expect_matches_oracle({1000, 16, 4});
  expect_matches_oracle({1000, 16, 20});
  expect_matches_oracle({1000, 16, 4, 0, false, 11});
}

TEST(TopologyOracle, WiderBucketZero) {
  expect_matches_oracle({1000, 16, 4, 8});
}

TEST(TopologyOracle, NeighborhoodConnect) {
  expect_matches_oracle({1000, 16, 4, 0, true});
  expect_matches_oracle({120, 12, 2, 0, true, 4});
  expect_matches_oracle({6, 4, 1, 0, true});
}

TEST(TopologyOracle, WideSpaces) {
  expect_matches_oracle({300, 28, 4});
  expect_matches_oracle({300, 32, 4, 0, false, 5});
}

TEST(TopologyOracle, TenThousandNodes) {
  expect_matches_oracle({10000, 20, 4});
}

}  // namespace
}  // namespace fairswap::overlay
