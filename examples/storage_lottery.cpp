// The storage-incentive lottery: each round a neighborhood lottery pays
// one staked node that can prove custody with a real BMT inclusion proof.
//
// This is the §V "storage incentives" thread: the bandwidth benches show
// who earns from *serving* data, this example shows who earns from
// *keeping* it.
#include <cstdio>

#include "common/config.hpp"
#include "common/gini.hpp"
#include "common/rng.hpp"
#include "incentives/storage_game.hpp"

int main(int argc, char** argv) {
  using namespace fairswap;
  const Config args = Config::from_args(argc, argv);
  const auto rounds = args.get_or("rounds", std::uint64_t{2000});

  // A 500-node overlay; everyone stakes 1 token to play.
  overlay::TopologyConfig cfg;
  cfg.node_count = args.get_or("nodes", std::uint64_t{500});
  cfg.address_bits = 16;
  cfg.buckets.k = 4;
  Rng trng(kDefaultSeed);
  const auto topo = overlay::Topology::build(cfg, trng);

  incentives::StorageGameConfig gcfg;
  gcfg.depth = 4;
  incentives::StorageGame game(topo, gcfg);
  for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
    game.set_stake(n, Token::whole(1));
  }

  Rng rng(11);
  for (std::uint64_t r = 0; r < rounds; ++r) game.play_round(rng);
  std::printf("over %llu rounds the lottery paid %llu rounds\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(game.rounds_paid()));

  const auto rewards = game.rewards_double();
  std::printf("storage-reward Gini across nodes: %.4f\n",
              gini(std::span<const double>(rewards)));
  std::size_t winners = 0;
  for (const double v : rewards) {
    if (v > 0) ++winners;
  }
  std::printf("%zu of %zu nodes won at least one round; the skew comes from "
              "neighborhood sizes — the same address-gap lottery that skews "
              "bandwidth income in the paper's Fig. 5.\n",
              winners, topo.node_count());
  return 0;
}
