// The SWAP channel over time (paper Fig. 2): two peers exchange service at
// different rates while time-based amortization pulls the balance back
// toward zero. A plain tick loop interleaves the requests and the
// amortization on one timeline.
//
// Demonstrates the free-tier property the paper highlights: "nodes may
// give away a limited amount of bandwidth per time-unit and connection for
// free. This feature allows anybody to request content from Swarm for
// free - albeit at a slow rate."
#include <cstdint>
#include <cstdio>

#include "accounting/swap.hpp"

int main() {
  using namespace fairswap;

  accounting::SwapConfig cfg;
  cfg.payment_threshold = Token(100);
  cfg.disconnect_threshold = Token(140);
  cfg.amortization_per_tick = Token(2);
  accounting::SwapNetwork swap(2, cfg);

  std::printf("two peers; A consumes 5 units from B every 2 ticks, B "
              "consumes 5 units from A every 6 ticks; amortization forgives "
              "2 units/tick.\n");
  std::printf("payment threshold: 100, disconnect threshold: 140\n\n");
  std::printf("%6s %14s %10s %12s\n", "tick", "A owes B", "refused",
              "settlements");

  // Within a tick, B's request comes first, then A's, then amortization.
  std::uint64_t refused = 0;
  for (std::uint64_t now = 1; now <= 120; ++now) {
    // Peer B requests from A every 6 ticks (light consumer).
    if (now % 6 == 0 &&
        swap.debit(/*consumer=*/1, /*provider=*/0, Token(5),
                   /*can_settle=*/false) ==
            accounting::DebitResult::kDisconnected) {
      ++refused;
    }
    // Peer A requests from B every 2 ticks (heavy consumer).
    if (now % 2 == 0 &&
        swap.debit(/*consumer=*/0, /*provider=*/1, Token(5),
                   /*can_settle=*/false) ==
            accounting::DebitResult::kDisconnected) {
      ++refused;
    }
    // Amortization ticks once per time unit; print every 10.
    swap.amortize_tick();
    if (now % 10 == 0) {
      std::printf("%6llu %14s %10llu %12zu\n",
                  static_cast<unsigned long long>(now),
                  swap.balance(1, 0).to_string().c_str(),
                  static_cast<unsigned long long>(refused),
                  swap.settlements().size());
    }
  }

  std::printf("\nA's net consumption (~1.7 units/tick beyond B's) races the "
              "2 units/tick amortization: the balance hovers in a bounded "
              "band and never reaches the disconnect threshold — A rides "
              "the free tier at a slow rate, exactly the behaviour the "
              "paper describes.\n");

  // Now triple A's appetite: the free tier no longer covers it.
  accounting::SwapNetwork greedy(2, cfg);
  std::uint64_t greedy_refused = 0;
  for (int t = 0; t < 120; ++t) {
    for (int burst = 0; burst < 3; ++burst) {
      if (greedy.debit(0, 1, Token(5), false) ==
          accounting::DebitResult::kDisconnected) {
        ++greedy_refused;
      }
    }
    greedy.amortize_tick();
  }
  std::printf("\nwith 3x the request rate, %llu of 360 requests were "
              "refused at the disconnect threshold (balance pinned at %s): "
              "beyond the free tier you must settle in tokens.\n",
              static_cast<unsigned long long>(greedy_refused),
              greedy.balance(1, 0).to_string().c_str());
  return 0;
}
