// Small bit-manipulation helpers used by the energy tracer and the fabrics.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/types.hpp"

namespace sfab {

/// Number of 1-bits in `w`.
[[nodiscard]] inline constexpr int popcount(Word w) noexcept {
  return std::popcount(w);
}

/// Number of bit positions whose polarity differs between consecutive words
/// on a bus — exactly the bits that charge wire energy in the paper's model
/// (E_W is nonzero only for 0->1 and 1->0 transitions).
[[nodiscard]] inline constexpr int toggled_bits(Word previous, Word current) noexcept {
  return std::popcount(previous ^ current);
}

/// True iff `v` is a power of two (and nonzero).
[[nodiscard]] inline constexpr bool is_pow2(std::uint64_t v) noexcept {
  return std::has_single_bit(v);
}

/// floor(log2(v)); requires v >= 1.
[[nodiscard]] inline constexpr unsigned log2_floor(std::uint64_t v) noexcept {
  assert(v >= 1);
  return static_cast<unsigned>(std::bit_width(v) - 1);
}

/// log2 of a power of two; requires is_pow2(v).
[[nodiscard]] inline constexpr unsigned log2_exact(std::uint64_t v) noexcept {
  assert(is_pow2(v));
  return log2_floor(v);
}

/// Extract bit `pos` (0 = LSB) of `v` as 0 or 1.
[[nodiscard]] inline constexpr unsigned bit_of(std::uint64_t v, unsigned pos) noexcept {
  return static_cast<unsigned>((v >> pos) & 1u);
}

/// Mask of the low `n` bits; n must be <= 63 for uint64 use below 64.
[[nodiscard]] inline constexpr std::uint64_t low_mask(unsigned n) noexcept {
  assert(n < 64);
  return (std::uint64_t{1} << n) - 1;
}

// --- word-array bitmasks ----------------------------------------------------
// Occupancy sets over ports/rows are kept as arrays of uint64_t words (bit
// i of word i/64 = element i), so membership updates are O(1) and "first
// member" scans are countr_zero over whole words.

/// Number of uint64_t words needed to hold `bits` mask bits.
[[nodiscard]] inline constexpr std::size_t bitmask_words(
    std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

/// Mask selecting the live bits of the LAST word of a `lanes`-bit lane
/// block: all ones when `lanes` fills the word, else the low `lanes % 64`
/// bits. The bit-sliced gate engine ANDs toggle diffs with this so ragged
/// lane counts (lane blocks whose last word is only partially populated)
/// never contribute dead-lane toggles or energy.
[[nodiscard]] inline constexpr std::uint64_t last_word_lane_mask(
    std::size_t lanes) noexcept {
  assert(lanes >= 1);
  const unsigned rem = static_cast<unsigned>(lanes % 64);
  return rem == 0 ? ~std::uint64_t{0} : low_mask(rem);
}

[[nodiscard]] inline constexpr bool test_bit(const std::uint64_t* words,
                                             std::size_t i) noexcept {
  return ((words[i >> 6] >> (i & 63)) & 1u) != 0;
}

/// Calls fn(base + b) for every set bit b of `word`, ascending. The single
/// member-scan idiom (clear-lowest-set + countr_zero) every subsystem used
/// to hand-roll: router streaming masks, gate-level lane accounting,
/// packet-lane planes.
template <class Fn>
inline constexpr void for_each_set_bit(std::uint64_t word, unsigned base,
                                       Fn&& fn) {
  while (word != 0) {
    fn(base + static_cast<unsigned>(std::countr_zero(word)));
    word &= word - 1;
  }
}

/// First index in the cyclic probe order start, start+1, ..., n-1, 0, ...,
/// start-1 for which pred(index) is true; returns n when none is. This is
/// the round-robin pointer walk of the iSLIP grant/accept phases, hoisted
/// so the arbiter's two phases (and both of its request-source paths)
/// share one scan.
template <class Pred>
[[nodiscard]] inline constexpr unsigned cyclic_first(unsigned n,
                                                     unsigned start,
                                                     Pred&& pred) {
  for (unsigned k = 0; k < n; ++k) {
    unsigned index = start + k;
    if (index >= n) index -= n;
    if (pred(index)) return index;
  }
  return n;
}

/// Mask form of cyclic_first over the low `n` bits of `mask`: the first set
/// bit at or after `start` in cyclic order, in O(1) via rotate + ctz
/// instead of the O(n) probe walk. `mask` must be nonzero and contain no
/// bits at or above n; start must be < n <= 64. Identical to
/// cyclic_first(n, start, [&](unsigned i) { return (mask >> i) & 1; }) —
/// the bit-sliced packet engine's iSLIP uses this where the scalar arbiter
/// walks pointers.
[[nodiscard]] inline constexpr unsigned first_set_cyclic(
    std::uint64_t mask, unsigned start, [[maybe_unused]] unsigned n) noexcept {
  assert(mask != 0);
  assert(start < n && n <= 64);
  assert(n == 64 || (mask >> n) == 0);
  const std::uint64_t at_or_after = mask >> start;
  if (at_or_after != 0) {
    return start + static_cast<unsigned>(std::countr_zero(at_or_after));
  }
  return static_cast<unsigned>(std::countr_zero(mask));
}

inline constexpr void set_bit(std::uint64_t* words, std::size_t i) noexcept {
  words[i >> 6] |= std::uint64_t{1} << (i & 63);
}

inline constexpr void clear_bit(std::uint64_t* words, std::size_t i) noexcept {
  words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

}  // namespace sfab
