#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace fairswap {

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // xoshiro state must not be all-zero; SplitMix64 makes that effectively
  // impossible, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  const std::uint64_t r = (span == 0) ? next() : next_below(span);
  return lo + static_cast<std::int64_t>(r);
}

double Rng::uniform01() noexcept {
  // 53 random bits into the mantissa: uniform on [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::size_t Rng::index(std::size_t n) noexcept {
  assert(n > 0);
  return static_cast<std::size_t>(next_below(n));
}

std::vector<std::size_t> Rng::sample_without_replacement(
    std::size_t n, std::size_t count) noexcept {
  // Partial Fisher-Yates over the virtual array idx[x] == x. Only slots a
  // swap has displaced differ from identity, and there are at most `take`
  // of them, so they live in an open-addressed table of 2*take..4*take
  // slots (load <= 1/2): O(take) time and memory however large n is. The
  // draws and the output are those of the dense shuffle, step for step.
  const std::size_t take = count < n ? count : n;
  std::vector<std::size_t> out(take);
  if (take == 0) return out;

  struct Slot {
    std::size_t key;
    std::size_t value;
  };
  constexpr std::size_t kEmpty = ~std::size_t{0};  // keys are < n
  constexpr std::size_t kInline = 16;
  const std::size_t slots = std::bit_ceil(2 * take);
  const int hash_shift = 64 - std::countr_zero(slots);
  std::array<Slot, kInline> inline_table;
  std::vector<Slot> heap_table;
  Slot* table = inline_table.data();
  if (slots > kInline) {
    heap_table.resize(slots);
    table = heap_table.data();
  }
  std::fill_n(table, slots, Slot{kEmpty, 0});

  // The slot holding `key`, or the empty slot where it would go.
  const auto find = [&](std::size_t key) -> Slot& {
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
        hash_shift);
    while (table[h].key != kEmpty && table[h].key != key) {
      h = (h + 1) & (slots - 1);
    }
    return table[h];
  };
  const auto value_at = [&](std::size_t key) {
    const Slot& s = find(key);
    return s.key == kEmpty ? key : s.value;
  };

  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    // swap(idx[i], idx[j]); idx[i] is final and never read again.
    const std::size_t vi = value_at(i);
    out[i] = value_at(j);
    Slot& sj = find(j);
    sj = Slot{j, vi};
  }
  return out;
}

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Derive a child seed by mixing the parent seed with the stream id
  // through SplitMix64; distinct streams yield uncorrelated children.
  SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return Rng(sm.next());
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against floating-point shortfall
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  const double u = rng.uniform01();
  // Binary search for the first cdf entry >= u.
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace fairswap
