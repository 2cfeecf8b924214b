#include "overlay/topology.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "common/log.hpp"
#include "overlay/compiled_router.hpp"

namespace fairswap::overlay {

ClosestNodeIndex::ClosestNodeIndex(const AddressSpace& space,
                                   std::span<const Address> nodes)
    : space_(space) {
  nodes_.emplace_back();  // root
  leaves_.reserve(nodes.size());
  for (Address a : nodes) insert(a);
}

void ClosestNodeIndex::insert(Address a) {
  std::int32_t cur = 0;
  for (int bit = space_.bits() - 1; bit >= 0; --bit) {
    const int b = static_cast<int>((a.v >> bit) & 1u);
    if (nodes_[static_cast<std::size_t>(cur)].child[b] < 0) {
      nodes_[static_cast<std::size_t>(cur)].child[b] =
          static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    cur = nodes_[static_cast<std::size_t>(cur)].child[b];
  }
  auto& leaf = nodes_[static_cast<std::size_t>(cur)];
  if (leaf.leaf < 0) {
    leaf.leaf = static_cast<std::int32_t>(leaves_.size());
    leaves_.push_back(a);
    ++leaf_count_;
  }
}

std::size_t ClosestNodeIndex::closest_index(Address target) const noexcept {
  assert(leaf_count_ > 0);
  std::int32_t cur = 0;
  for (int bit = space_.bits() - 1; bit >= 0; --bit) {
    const int want = static_cast<int>((target.v >> bit) & 1u);
    const auto& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.child[want] >= 0) {
      cur = node.child[want];
    } else {
      cur = node.child[1 - want];
    }
  }
  return static_cast<std::size_t>(nodes_[static_cast<std::size_t>(cur)].leaf);
}

Address ClosestNodeIndex::closest(Address target) const noexcept {
  return leaves_[closest_index(target)];
}

namespace {

// The candidate pools of every routing table, read off the address trie.
//
// Sorted by address, the nodes sharing their top l bits (a level-l prefix
// group) form one contiguous range of positions, the same range at every
// level below l. Bucket b of a node is the sibling of the node's
// level-(b+1) group: the nodes that agree with it on the top b bits and
// differ in bit b. The O(n^2) scan that defines the tables lists each pool
// in NodeIndex order, so level(l) stores the addresses of every level-l
// group's members in NodeIndex order (a stable partition of level l-1 by
// one address bit), and the p-th candidate of any pool is one load.
//
// Group boundaries come from a rank table over the top `top_bits_` bits
// (2^top_bits_ >= n, so O(n) entries) for the shallow levels, and from a
// binary search inside the current group for the deeper ones, where the
// groups hold a node or two. Building is O(n * bits) time and memory;
// locating all of a node's pools is O(bits).
class PrefixPools {
 public:
  /// A half-open range of positions in the address-sorted order.
  struct Range {
    std::uint32_t lo;
    std::uint32_t hi;
    [[nodiscard]] std::uint32_t size() const noexcept { return hi - lo; }
  };

  PrefixPools(int bits, std::span<const Address> addresses)
      : bits_(bits),
        n_(static_cast<std::uint32_t>(addresses.size())),
        top_bits_(std::min(bits, static_cast<int>(std::bit_width(n_)))) {
    sorted_.reserve(n_);
    for (const Address a : addresses) sorted_.push_back(a.v);
    std::sort(sorted_.begin(), sorted_.end());

    const std::uint64_t cells = std::uint64_t{1} << top_bits_;
    rank_.resize(cells + 1);
    std::uint32_t pos = 0;
    for (std::uint64_t c = 0; c <= cells; ++c) {
      while (pos < n_ && prefix(sorted_[pos], top_bits_) < c) ++pos;
      rank_[c] = pos;
    }

    levels_.resize(static_cast<std::size_t>(bits_ + 1) * n_);
    for (NodeIndex i = 0; i < n_; ++i) levels_[i] = addresses[i].v;
    for (int l = 0; l < bits_; ++l) {
      const AddressValue* src = level(l);
      AddressValue* dst =
          levels_.data() + static_cast<std::size_t>(l + 1) * n_;
      const int shift = bits_ - 1 - l;
      for (std::uint32_t lo = 0; lo < n_;) {
        const std::uint64_t group = prefix(sorted_[lo], l);
        std::uint32_t mid = lo;
        while (mid < n_ && prefix(sorted_[mid], l + 1) == 2 * group) ++mid;
        std::uint32_t hi = mid;
        while (hi < n_ && prefix(sorted_[hi], l) == group) ++hi;
        std::uint32_t zero = lo;
        std::uint32_t one = mid;
        for (std::uint32_t x = lo; x < hi; ++x) {
          const AddressValue v = src[x];
          dst[((v >> shift) & 1u) ? one++ : zero++] = v;
        }
        lo = hi;
      }
    }
  }

  /// Every node's level-0 group.
  [[nodiscard]] Range root() const noexcept { return {0, n_}; }

  /// Splits `group`, the level-b group of the node at address `self`, by
  /// address bit b: returns the half without self (bucket b's candidate
  /// pool, a range of level(b + 1)) and narrows `group` to self's half.
  Range split(Range& group, AddressValue self, int b) const noexcept {
    const int shift = bits_ - 1 - b;
    std::uint32_t mid;
    if (b < top_bits_) {
      const std::uint64_t upper = prefix(self, b + 1) | 1u;
      mid = rank_[upper << (top_bits_ - 1 - b)];
    } else {
      const auto first = sorted_.begin();
      const auto bit_clear = [shift](AddressValue v) {
        return ((v >> shift) & 1u) == 0;
      };
      mid = static_cast<std::uint32_t>(
          std::partition_point(first + group.lo, first + group.hi, bit_clear) -
          first);
    }
    Range pool;
    if ((self >> shift) & 1u) {
      pool = {group.lo, mid};
      group.lo = mid;
    } else {
      pool = {mid, group.hi};
      group.hi = mid;
    }
    return pool;
  }

  /// Level l (0..bits): the addresses of each level-l group's members in
  /// NodeIndex order, indexed by address-sorted position.
  [[nodiscard]] const AddressValue* level(int l) const noexcept {
    return levels_.data() + static_cast<std::size_t>(l) * n_;
  }

 private:
  /// The top `len` bits of an address (64-bit, so len may be 0 or 32).
  [[nodiscard]] std::uint64_t prefix(AddressValue v, int len) const noexcept {
    return std::uint64_t{v} >> (bits_ - len);
  }

  int bits_;
  std::uint32_t n_;
  int top_bits_;
  std::vector<AddressValue> sorted_;  ///< addresses, ascending
  std::vector<std::uint32_t> rank_;   ///< top-bits prefix -> first position
  std::vector<AddressValue> levels_;  ///< (bits + 1) levels of n entries
};

}  // namespace

Topology::Topology(TopologyConfig config, AddressSpace space)
    : config_(std::move(config)), space_(space) {}

Topology Topology::build(const TopologyConfig& config, Rng& rng) {
  AddressSpace space(config.address_bits);
  if (config.node_count == 0) {
    throw std::invalid_argument("node_count must be > 0");
  }
  if (config.node_count > space.size()) {
    throw std::invalid_argument("node_count exceeds address-space size");
  }

  Topology topo(config, space);

  // 1) Unique uniform addresses (rejection sampling; the paper's 1000
  //    nodes in a 65536-slot space reject ~1.5% of draws).
  // fairswap-lint: allow(unordered-container) -- rejection-sampling dedup;
  // only insert().second is observed, never enumerated.
  std::unordered_set<AddressValue> seen;
  topo.addresses_.reserve(config.node_count);
  while (topo.addresses_.size() < config.node_count) {
    const Address a{static_cast<AddressValue>(rng.next_below(space.size()))};
    if (seen.insert(a.v).second) topo.addresses_.push_back(a);
  }
  for (NodeIndex i = 0; i < topo.addresses_.size(); ++i) {
    topo.index_.emplace(topo.addresses_[i], i);
  }

  // 2) Routing tables: each bucket takes up to its capacity of the nodes
  //    filed under it, sampled uniformly without replacement (paper: "half
  //    of the network's nodes are candidates for bucket 0, but only k nodes
  //    are chosen"). A pool is a range of PrefixPools, so only the sampled
  //    candidates are ever touched.
  const int bits = space.bits();
  topo.tables_.reserve(config.node_count);
  {
    // Scoped so the pools are freed before the compiled router is built.
    const PrefixPools pools(bits, topo.addresses_);
    std::vector<PrefixPools::Range> pool_of(static_cast<std::size_t>(bits));
    for (NodeIndex i = 0; i < topo.addresses_.size(); ++i) {
      const Address self = topo.addresses_[i];
      RoutingTable table(space, self, config.buckets);

      PrefixPools::Range group = pools.root();
      for (int b = 0; b < bits; ++b) {
        const PrefixPools::Range pool = pools.split(group, self.v, b);
        pool_of[static_cast<std::size_t>(b)] = pool;
        const AddressValue* members = pools.level(b + 1) + pool.lo;
        const auto picks = rng.sample_without_replacement(
            pool.size(), config.buckets.capacity(b));
        for (std::size_t p : picks) table.try_add(Address{members[p]});
      }

      if (config.neighborhood_connect) {
        // Offer every node at proximity >= depth, in NodeIndex order. A
        // full bucket refuses every offer, and any other bucket already
        // holds its whole pool, so as the buckets are filled above this
        // walk adds no peer; it visits fewer than capacity nodes a bucket.
        const int depth =
            table.neighborhood_depth(config.neighborhood_min_peers);
        for (int b = depth; b < bits; ++b) {
          if (table.bucket_size(b) >= config.buckets.capacity(b)) continue;
          const PrefixPools::Range pool = pool_of[static_cast<std::size_t>(b)];
          const AddressValue* members = pools.level(b + 1);
          for (std::uint32_t x = pool.lo; x < pool.hi; ++x) {
            const Address other{members[x]};
            if (!table.contains(other)) table.try_add(other);
          }
        }
      }

      topo.tables_.push_back(std::move(table));
    }
  }

  topo.compiled_ = std::make_shared<const CompiledRouter>(topo);

  FAIRSWAP_LOG(kInfo, "overlay")
      << "built topology: " << topo.node_count() << " nodes, "
      << space.bits() << "-bit space, k=" << config.buckets.k
      << (config.buckets.k_bucket0 ? " (bucket0 k=" +
              std::to_string(config.buckets.k_bucket0) + ")" : std::string{})
      << ", edges=" << topo.edge_count()
      << ", compiled routing " << topo.compiled_->memory_bytes() << " bytes";
  return topo;
}

const CompiledRouter& Topology::compiled() const noexcept { return *compiled_; }

bool Topology::inject_table_entry(NodeIndex node, Address peer) {
  if (!tables_[node].try_add(peer)) return false;
  compiled_ = std::make_shared<const CompiledRouter>(*this);
  return true;
}

std::optional<NodeIndex> Topology::index_of(Address a) const noexcept {
  const auto it = index_.find(a);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

NodeIndex Topology::closest_node(Address target) const noexcept {
  return compiled_->storer_of(target);
}

std::size_t Topology::edge_count() const noexcept {
  std::size_t total = 0;
  for (const auto& t : tables_) total += t.size();
  return total;
}

}  // namespace fairswap::overlay
