#include "reference_topology.hpp"

#include <stdexcept>
#include <unordered_set>

namespace fairswap::overlay::oracle {

ReferenceTopology build_reference_topology(const TopologyConfig& config,
                                           Rng& rng) {
  AddressSpace space(config.address_bits);
  if (config.node_count == 0) {
    throw std::invalid_argument("node_count must be > 0");
  }
  if (config.node_count > space.size()) {
    throw std::invalid_argument("node_count exceeds address-space size");
  }

  ReferenceTopology topo;

  // 1) Unique uniform addresses (rejection sampling).
  // fairswap-lint: allow(unordered-container) -- rejection-sampling dedup;
  // only insert().second is observed, never enumerated.
  std::unordered_set<AddressValue> seen;
  topo.addresses.reserve(config.node_count);
  while (topo.addresses.size() < config.node_count) {
    const Address a{static_cast<AddressValue>(rng.next_below(space.size()))};
    if (seen.insert(a.v).second) topo.addresses.push_back(a);
  }

  // 2) Routing tables: for each node, group all other nodes by bucket and
  //    sample up to the bucket capacity uniformly without replacement.
  topo.tables.reserve(config.node_count);
  std::vector<std::vector<NodeIndex>> candidates(
      static_cast<std::size_t>(space.bits()));
  for (NodeIndex i = 0; i < topo.addresses.size(); ++i) {
    const Address self = topo.addresses[i];
    RoutingTable table(space, self, config.buckets);

    for (auto& c : candidates) c.clear();
    for (NodeIndex j = 0; j < topo.addresses.size(); ++j) {
      if (j == i) continue;
      const int b = space.bucket_index(self, topo.addresses[j]);
      candidates[static_cast<std::size_t>(b)].push_back(j);
    }

    for (int b = 0; b < space.bits(); ++b) {
      auto& pool = candidates[static_cast<std::size_t>(b)];
      const std::size_t want = config.buckets.capacity(b);
      const auto picks = rng.sample_without_replacement(pool.size(), want);
      for (std::size_t p : picks) {
        table.try_add(topo.addresses[pool[p]]);
      }
    }

    if (config.neighborhood_connect) {
      const int depth = table.neighborhood_depth(config.neighborhood_min_peers);
      for (NodeIndex j = 0; j < topo.addresses.size(); ++j) {
        if (j == i) continue;
        const Address other = topo.addresses[j];
        if (space.proximity(self, other) >= depth && !table.contains(other)) {
          table.try_add(other);
        }
      }
    }

    topo.tables.push_back(std::move(table));
  }
  return topo;
}

}  // namespace fairswap::overlay::oracle
