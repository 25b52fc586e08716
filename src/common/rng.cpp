#include "common/rng.hpp"

#include <cassert>
#include <stdexcept>

namespace sfab {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                 std::uint64_t stream) noexcept {
  // SplitMix64 advances its state by the golden-gamma constant per draw, so
  // the (stream+1)-th output is one mix of base_seed + stream * gamma.
  std::uint64_t state = base_seed + stream * 0x9E3779B97F4A7C15ull;
  return splitmix64_next(state);
}

Rng::Rng(std::uint64_t seed) noexcept {
  // Expand the seed; xoshiro must not start from an all-zero state, which
  // SplitMix64 cannot produce for four consecutive outputs.
  for (auto& word : s_) word = splitmix64_next(seed);
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  assert(bound >= 1);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

Rng Rng::split() noexcept { return Rng{next_u64()}; }

namespace {

/// In-place 64x64 bit-matrix ANTI-diagonal transpose (the Hacker's
/// Delight 7-3 network read in LSB-first convention): afterwards bit j of
/// word i equals the old bit (63 - i) of word (63 - j). Callers undo the
/// two reversals with index order alone, so a true transpose costs no
/// extra bit operations.
void antitranspose64(std::uint64_t a[64]) noexcept {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (a[k] ^ (a[k + j] >> j)) & m;
      a[k] ^= t;
      a[k + j] ^= t << j;
    }
  }
}

/// Refills one 64-lane group: draws one raw u64 from each of `lanes[0..64)`
/// and writes 64 consecutive stimulus words into out[0..64) (out[t] bit k =
/// bit t of lane k's draw — LSB-first per lane, exactly BitRng's
/// consumption order). Loading lane k's draw into row 63-k and reading the
/// anti-transposed words back reversed undoes both reversals with index
/// order alone.
void refill_lane_group(Rng* lanes, std::uint64_t* out) noexcept {
  std::uint64_t scratch[64];
  for (unsigned k = 0; k < 64; ++k) {
    scratch[63 - k] = lanes[k].next_u64();
  }
  antitranspose64(scratch);
  for (unsigned t = 0; t < 64; ++t) out[t] = scratch[63 - t];
}

}  // namespace

LaneRngBlock::LaneRngBlock(std::uint64_t base_seed, unsigned words)
    : words_(words) {
  if (words < 1) {
    throw std::invalid_argument("LaneRngBlock: words must be >= 1");
  }
  lanes_.reserve(std::size_t{words} * kWordLanes);
  for (std::size_t j = 0; j < std::size_t{words} * kWordLanes; ++j) {
    lanes_.emplace_back(derive_stream_seed(base_seed, j));
  }
  pending_.assign(std::size_t{words} * kWordLanes, 0);
}

void LaneRngBlock::refill_() noexcept {
  for (unsigned g = 0; g < words_; ++g) {
    refill_lane_group(lanes_.data() + std::size_t{g} * kWordLanes,
                      pending_.data() + std::size_t{g} * kWordLanes);
  }
  cursor_ = 0;
}

}  // namespace sfab
