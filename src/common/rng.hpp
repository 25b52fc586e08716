// Deterministic, seedable random number generation.
//
// The whole framework must be reproducible run-to-run (the paper's platform
// traces individual bits; regression tests depend on bit-identical streams),
// so we ship our own tiny xoshiro256** generator rather than relying on
// std::mt19937 distribution details that the standard leaves unspecified
// (std::uniform_int_distribution is not portable across library versions).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace sfab {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// Derives the seed of stream `stream` from `base_seed`: the (stream+1)-th
/// output of the SplitMix64 sequence seeded at `base_seed`, computed in O(1).
/// The experiment engine seeds replicate r of every sweep point with
/// derive_stream_seed(base_seed, r), so
///   * distinct replicates get decorrelated generators, and
///   * every grid point shares the same seed per replicate (paired sweeps),
/// independent of grid shape, execution order and thread count.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                               std::uint64_t stream) noexcept;

/// xoshiro256** 1.0 (Blackman/Vigna) with convenience draws. The draw
/// methods are defined inline: every packet word and every arrival decision
/// goes through them, and the call overhead was visible in sweep profiles.
class Rng {
 public:
  /// Seeds the four state words from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit draw.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl_(s_[3], 45);
    return result;
  }

  /// Next raw 32-bit draw (upper half of a 64-bit draw).
  [[nodiscard]] std::uint32_t next_u32() noexcept {
    return static_cast<std::uint32_t>(next_u64() >> 32);
  }

  /// Uniform in [0, 1) with 53-bit resolution.
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound); bound must be >= 1.
  /// Uses Lemire-style rejection to avoid modulo bias.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool next_bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Precomputed integer threshold for next_bernoulli(p): next_double() < p
  /// compares v * 2^-53 < p for the integer v = next_u64() >> 11, which is
  /// exactly v < ceil(p * 2^53) (p * 2^53 is the same mantissa with a
  /// shifted exponent, so the product is exact). Callers that draw against
  /// a fixed p hoist the conversion out of the per-draw path.
  [[nodiscard]] static std::uint64_t bernoulli_threshold(double p) noexcept {
    if (p <= 0.0) return 0;  // v < 0 never holds
    const double scaled = p * 9007199254740992.0;  // p * 2^53, exact
    const double floor_scaled = static_cast<double>(
        static_cast<std::uint64_t>(scaled));
    return static_cast<std::uint64_t>(scaled) +
           (scaled != floor_scaled ? 1 : 0);
  }

  /// next_bernoulli(p) for 0 < p < 1 with the threshold precomputed via
  /// bernoulli_threshold(p). Draw-for-draw identical to next_bernoulli.
  [[nodiscard]] bool next_bernoulli_threshold(std::uint64_t threshold) noexcept {
    return (next_u64() >> 11) < threshold;
  }

  /// One random bus word (all 32 bits independent).
  [[nodiscard]] Word next_word() noexcept { return next_u32(); }

  /// Split off an independent child generator. Children seeded from distinct
  /// streams never correlate with the parent's subsequent draws.
  [[nodiscard]] Rng split() noexcept;

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl_(std::uint64_t x,
                                                     int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  friend class LaneRngBlock;  // reads the seeded state into its planes

  std::uint64_t s_[4];
};

/// Multi-generator integer-threshold Bernoulli draw: bit j of the result
/// is lanes[j].next_bernoulli_threshold(threshold) for j < count (j >=
/// count bits are zero), consuming exactly one raw u64 per listed
/// generator. The packet engine draws one arrival coin per port with
/// next_bernoulli_threshold; this function's last caller is perfbench's
/// common.bernoulli_word_ns row.
[[nodiscard]] inline std::uint64_t next_bernoulli_word(
    Rng* lanes, unsigned count, std::uint64_t threshold) noexcept {
  std::uint64_t word = 0;
  for (unsigned j = 0; j < count; ++j) {
    word |= std::uint64_t{lanes[j].next_bernoulli_threshold(threshold)} << j;
  }
  return word;
}

/// Bit-serial view over an Rng: successive next_bit() calls return the
/// LSB-first bit expansion of successive next_u64() draws. This is the
/// scalar reference for one lane of LaneRngBlock: lane k of
/// LaneRngBlock{seed, words} emits exactly
/// BitRng{Rng{derive_stream_seed(seed, k)}}'s stream, which is what the
/// bit-sliced gate-level equivalence harness drives the scalar engine
/// with.
class BitRng {
 public:
  explicit BitRng(Rng rng) noexcept : rng_(rng) {}

  [[nodiscard]] bool next_bit() noexcept {
    if (left_ == 0) {
      buffer_ = rng_.next_u64();
      left_ = 64;
    }
    const bool bit = (buffer_ & 1u) != 0;
    buffer_ >>= 1;
    --left_;
    return bit;
  }

 private:
  Rng rng_;
  std::uint64_t buffer_ = 0;
  unsigned left_ = 0;
};

/// W×64 independent, decorrelated random bit streams packed as a *lane
/// block* of W words — the stimulus source for the bit-sliced gate-level
/// engine (64–512 Monte-Carlo lanes per sweep). Bit b of word w is lane
/// (64·w + b), and lane j draws the stream derive_stream_seed(base_seed,
/// j) — exactly the seed a BitRng reference of lane j would use. Streams
/// are therefore a pure function of the lane index: a lane emits the
/// identical bit sequence at every block width, which is what makes
/// characterization results independent of the engine's block width.
///
/// The generators themselves are bit-sliced: state bit b of xoshiro word
/// i is one plane of W words whose bit k belongs to lane k. A refill runs
/// one xoshiro256** step for every lane at once — the output scrambler
/// rotl(s1 * 5, 7) * 9 as two ripple-carry adders over the planes, the
/// state update as plane XORs, its shift as a plane offset and its
/// rotation as a renumbering of s3's planes — and the 64 output planes
/// it leaves are the next 64 blocks, bit t of every lane's draw in block
/// t, with no per-lane draw and no transpose.
class LaneRngBlock {
 public:
  static constexpr unsigned kWordLanes = 64;

  /// `words` ≥ 1 words per block (64·words lanes).
  LaneRngBlock(std::uint64_t base_seed, unsigned words);

  [[nodiscard]] unsigned words() const noexcept { return words_; }
  [[nodiscard]] unsigned lanes() const noexcept {
    return words_ * kWordLanes;
  }

  /// Writes the next stimulus block into out[0..words()): bit b of
  /// out[w] = lane (64·w + b)'s next Bernoulli(1/2) draw.
  void next_block(std::uint64_t* out) noexcept {
    if (cursor_ == kWordLanes) refill_();
    const std::uint64_t* block = pending_.data() + cursor_ * words_;
    for (unsigned w = 0; w < words_; ++w) out[w] = block[w];
    ++cursor_;
  }

 private:
  void refill_() noexcept;

  unsigned words_;
  /// Plane (64·i + b) holds state bit b of xoshiro word i in every lane,
  /// words_ words per plane; s3's planes are stored rotated by s3_shift_.
  std::vector<std::uint64_t> state_;
  unsigned s3_shift_ = 0;
  std::vector<std::uint64_t> pending_;  ///< [t * words_ + w], t = block time
  unsigned cursor_ = kWordLanes;
};

}  // namespace sfab
