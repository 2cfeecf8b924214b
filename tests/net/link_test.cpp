#include "net/link.hpp"

#include <gtest/gtest.h>

namespace fairswap::net {
namespace {

TEST(LatencyModel, JitteredLatencyIsSymmetricAndStable) {
  LatencyModel model({.base = 5, .jitter = 30, .seed = 42});
  for (overlay::NodeIndex a = 0; a < 20; ++a) {
    for (overlay::NodeIndex b = 0; b < 20; ++b) {
      if (a == b) continue;
      EXPECT_EQ(model.latency(a, b), model.latency(b, a));
      EXPECT_GE(model.latency(a, b), 5u);
      EXPECT_LT(model.latency(a, b), 35u);
      EXPECT_EQ(model.latency(a, b), model.latency(a, b));
    }
  }
}

}  // namespace
}  // namespace fairswap::net
