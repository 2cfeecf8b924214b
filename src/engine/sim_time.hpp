// Simulated time in abstract ticks, shared by the flow layer and links.
#pragma once

#include <cstdint>

namespace fairswap::engine {

using SimTime = std::uint64_t;

}  // namespace fairswap::engine
