// Test-only oracle for overlay::Topology::build: the all-pairs table fill
// the production builder replaced, unchanged. For every node it files all
// other nodes under their bucket, in NodeIndex order, and samples each
// bucket's pool with Rng::sample_without_replacement — the O(n^2)
// definition of the tables. The production builder must reproduce its
// addresses, bucket contents and order, and RNG draws bit for bit
// (topology_differential_test.cpp); it is not linked into the library.
#pragma once

#include <vector>

#include "common/address.hpp"
#include "common/rng.hpp"
#include "overlay/routing_table.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay::oracle {

/// The addresses and routing tables of one built overlay, in node order.
struct ReferenceTopology {
  std::vector<Address> addresses;
  std::vector<RoutingTable> tables;
};

/// Topology::build as it was before the prefix-pool rewrite: same
/// preconditions, same draws from `rng`, same tables.
ReferenceTopology build_reference_topology(const TopologyConfig& config,
                                           Rng& rng);

}  // namespace fairswap::overlay::oracle
