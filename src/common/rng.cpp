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

/// One xoshiro256** step of the C words of lanes at `state` (planes of
/// `stride` words, s3's stored rotated by s3_shift): writes output bit b
/// of every lane to out[b * stride], then steps the state. C is a compile
/// time width so each plane operation is a few vector instructions with
/// its carries in registers.
template <unsigned C>
void step_lanes(std::uint64_t* state, std::size_t stride, unsigned s3_shift,
                std::uint64_t* out) noexcept {
  const auto plane = [&](unsigned word, unsigned bit) {
    return state + std::size_t{64 * word + bit} * stride;
  };

  // The output rotl(s1 * 5, 7) * 9 as two ripple-carry adders: s1 plus
  // s1 << 2, then r plus r << 3 with r the product read 7 planes rotated.
  std::uint64_t product[64][C] = {};
  std::uint64_t carry[C] = {};
  for (unsigned b = 0; b < 64; ++b) {
    const std::uint64_t* x = plane(1, b);
    const std::uint64_t* y = plane(1, (b - 2) & 63);
    for (unsigned j = 0; j < C; ++j) {
      const std::uint64_t shifted = b >= 2 ? y[j] : 0;
      const std::uint64_t half = x[j] ^ shifted;
      product[b][j] = half ^ carry[j];
      carry[j] = (x[j] & shifted) | (half & carry[j]);
    }
  }
  for (unsigned j = 0; j < C; ++j) carry[j] = 0;
  for (unsigned b = 0; b < 64; ++b) {
    const std::uint64_t* x = product[(b - 7) & 63];
    const std::uint64_t* y = product[(b - 10) & 63];
    std::uint64_t* o = out + std::size_t{b} * stride;
    for (unsigned j = 0; j < C; ++j) {
      const std::uint64_t shifted = b >= 3 ? y[j] : 0;
      const std::uint64_t half = x[j] ^ shifted;
      o[j] = half ^ carry[j];
      carry[j] = (x[j] & shifted) | (half & carry[j]);
    }
  }

  // State step: t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3;
  // s2 ^= t; s3 = rotl(s3, 45). Bit b of each update reads bit b of the
  // others and bit b - 17 of the old s1, so walking b downwards reads
  // those s1 planes before they change. The caller renumbers s3's planes
  // for the rotation.
  for (unsigned b = 64; b-- > 0;) {
    std::uint64_t* s0 = plane(0, b);
    std::uint64_t* s1 = plane(1, b);
    std::uint64_t* s2 = plane(2, b);
    std::uint64_t* s3 = plane(3, (b + s3_shift) & 63);
    const std::uint64_t* t = plane(1, (b - 17) & 63);
    for (unsigned j = 0; j < C; ++j) {
      const std::uint64_t v2 = s2[j] ^ s0[j];
      const std::uint64_t v3 = s3[j] ^ s1[j];
      s0[j] ^= v3;
      s1[j] ^= v2;
      s2[j] = v2 ^ (b >= 17 ? t[j] : 0);
      s3[j] = v3;
    }
  }
}

}  // namespace

LaneRngBlock::LaneRngBlock(std::uint64_t base_seed, unsigned words)
    : words_(words) {
  if (words < 1) {
    throw std::invalid_argument("LaneRngBlock: words must be >= 1");
  }
  state_.assign(std::size_t{256} * words, 0);
  for (std::size_t lane = 0; lane < std::size_t{words} * kWordLanes;
       ++lane) {
    const Rng rng{derive_stream_seed(base_seed, lane)};
    std::uint64_t* column = state_.data() + lane / kWordLanes;
    for (unsigned bit = 0; bit < 256; ++bit) {
      column[std::size_t{bit} * words] |= ((rng.s_[bit / 64] >> (bit % 64)) & 1)
                                          << (lane % kWordLanes);
    }
  }
  pending_.assign(std::size_t{64} * words, 0);
}

void LaneRngBlock::refill_() noexcept {
  // Eight words at a time (512 lanes, the widest gate-level block), then
  // word by word.
  unsigned w = 0;
  for (; w + 8 <= words_; w += 8) {
    step_lanes<8>(state_.data() + w, words_, s3_shift_, pending_.data() + w);
  }
  for (; w < words_; ++w) {
    step_lanes<1>(state_.data() + w, words_, s3_shift_, pending_.data() + w);
  }
  s3_shift_ = (s3_shift_ + 64 - 45) & 63;  // s3 = rotl(s3, 45)
  cursor_ = 0;
}

}  // namespace sfab
