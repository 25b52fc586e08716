// Unit tests for src/common: RNG, bit operations, interpolation tables.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/bitops.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace sfab {
namespace {

// --- Rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng{3};
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng{5};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng{13};
  std::array<int, 8> counts{};
  const int n = 80'000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(8)];
  for (const int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
    EXPECT_FALSE(rng.next_bernoulli(-0.5));
    EXPECT_TRUE(rng.next_bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng{19};
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.next_bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, DeriveStreamSeedIsDeterministicAndDecorrelated) {
  // The sweep engine's per-replicate seeds: O(1), reproducible, and
  // adjacent streams share no obvious structure.
  EXPECT_EQ(derive_stream_seed(123, 0), derive_stream_seed(123, 0));
  EXPECT_NE(derive_stream_seed(123, 0), derive_stream_seed(123, 1));
  EXPECT_NE(derive_stream_seed(123, 0), derive_stream_seed(124, 0));
  Rng a{derive_stream_seed(123, 0)};
  Rng b{derive_stream_seed(123, 1)};
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent{23};
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent.next_u64() == child.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, WordUsesFullRange) {
  Rng rng{29};
  Word all_or = 0, all_and = 0xFFFFFFFFu;
  for (int i = 0; i < 1000; ++i) {
    const Word w = rng.next_word();
    all_or |= w;
    all_and &= w;
  }
  EXPECT_EQ(all_or, 0xFFFFFFFFu);
  EXPECT_EQ(all_and, 0u);
}

TEST(BitRng, LsbFirstExpansionOfU64Draws) {
  Rng reference{77};
  BitRng bits{Rng{77}};
  for (int draw = 0; draw < 4; ++draw) {
    const std::uint64_t word = reference.next_u64();
    for (unsigned j = 0; j < 64; ++j) {
      ASSERT_EQ(bits.next_bit(), ((word >> j) & 1u) != 0)
          << "draw " << draw << " bit " << j;
    }
  }
}

TEST(LaneRngBlock, LaneKIsGlobalStreamKAtEveryWidth) {
  // The block-width invariance contract the multi-word bit-sliced engine
  // rests on: bit b of word w is lane (64·w + b), and that lane's bit
  // sequence is exactly the bit-serial stream of an Rng seeded with
  // derive_stream_seed(seed, lane) — independent of the block width that
  // carries it. Every lane at every width, over four refills, so a plane
  // renumbered wrongly in a later refill shows.
  constexpr std::uint64_t kSeed = 0xB10CCull;
  constexpr unsigned kBlocks = 4 * 64;
  for (unsigned words = 1; words <= 8; ++words) {
    LaneRngBlock block{kSeed, words};
    ASSERT_EQ(block.words(), words);
    ASSERT_EQ(block.lanes(), words * 64);
    std::vector<std::uint64_t> history(kBlocks * words);
    for (unsigned t = 0; t < kBlocks; ++t) {
      block.next_block(history.data() + std::size_t{t} * words);
    }
    for (unsigned lane = 0; lane < words * 64; ++lane) {
      BitRng bits{Rng{derive_stream_seed(kSeed, lane)}};
      for (unsigned t = 0; t < kBlocks; ++t) {
        const std::uint64_t word = history[std::size_t{t} * words + lane / 64];
        ASSERT_EQ(((word >> (lane % 64)) & 1u) != 0, bits.next_bit())
            << "words " << words << " lane " << lane << " block " << t;
      }
    }
  }
}

TEST(LaneRngBlock, LaneStreamInvariantUnderWidthChanges) {
  // A lane shared by two block widths emits the identical sequence from
  // both — the property that makes characterization results independent
  // of the engine's block decomposition.
  constexpr std::uint64_t kSeed = 0x1DEA;
  constexpr unsigned kBlocks = 100;
  LaneRngBlock narrow{kSeed, 2};   // lanes 0..127
  LaneRngBlock wide{kSeed, 8};     // lanes 0..511
  std::vector<std::uint64_t> n(2), w(8);
  for (unsigned t = 0; t < kBlocks; ++t) {
    narrow.next_block(n.data());
    wide.next_block(w.data());
    ASSERT_EQ(n[0], w[0]) << "block " << t;
    ASSERT_EQ(n[1], w[1]) << "block " << t;
  }
}

TEST(LaneRngBlock, LanesAreDistinctAndBalancedAcrossWords) {
  // Cross-lane independence at the widest block: every one of the 512
  // lanes is a fair coin and no two lanes emit the same 192-bit column.
  LaneRngBlock block{99, 8};
  constexpr unsigned kBlocks = 192;
  std::vector<std::uint64_t> history(kBlocks * 8);
  for (unsigned t = 0; t < kBlocks; ++t) {
    block.next_block(history.data() + std::size_t{t} * 8);
  }
  std::set<std::vector<bool>> columns;
  for (unsigned lane = 0; lane < 512; ++lane) {
    unsigned ones = 0;
    std::vector<bool> column;
    for (unsigned t = 0; t < kBlocks; ++t) {
      const bool bit =
          ((history[std::size_t{t} * 8 + lane / 64] >> (lane % 64)) & 1u) != 0;
      ones += bit;
      column.push_back(bit);
    }
    // 192 flips: expect ~96, allow a generous +/- 55.
    EXPECT_GT(ones, 41u) << "lane " << lane;
    EXPECT_LT(ones, 151u) << "lane " << lane;
    EXPECT_TRUE(columns.insert(column).second) << "duplicate lane " << lane;
  }
}

TEST(LaneRngBlock, RejectsZeroWords) {
  EXPECT_THROW((void)LaneRngBlock(1, 0), std::invalid_argument);
}

TEST(NextBernoulliWord, MatchesScalarGeneratorForGenerator) {
  // next_bernoulli_word's contract: bit j is exactly generator j's
  // next_bernoulli_threshold draw, one raw u64 per listed generator per
  // call, and every bit at or above `count` is zero.
  constexpr std::uint64_t kSeed = 0xBE12u;
  constexpr double kRate = 0.23;
  constexpr unsigned kDraws = 120;
  const std::uint64_t threshold = Rng::bernoulli_threshold(kRate);
  for (const unsigned count : {1u, 7u, 8u, 63u, 64u}) {
    std::vector<Rng> packed, scalar;
    for (unsigned j = 0; j < count; ++j) {
      packed.emplace_back(derive_stream_seed(kSeed, j));
      scalar.emplace_back(derive_stream_seed(kSeed, j));
    }
    for (unsigned t = 0; t < kDraws; ++t) {
      const std::uint64_t word =
          next_bernoulli_word(packed.data(), count, threshold);
      for (unsigned j = 0; j < count; ++j) {
        ASSERT_EQ(((word >> j) & 1u) != 0,
                  scalar[j].next_bernoulli_threshold(threshold))
            << "count " << count << " draw " << t << " generator " << j;
      }
      if (count < 64) {
        ASSERT_EQ(word >> count, 0u) << "count " << count << " draw " << t;
      }
    }
  }
}

TEST(SplitMix64, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64_next(state);
  std::uint64_t state2 = 0;
  EXPECT_EQ(first, splitmix64_next(state2));
  EXPECT_NE(splitmix64_next(state), first);
}

// --- parse_number --------------------------------------------------------------

TEST(ParseNumber, RejectsAnythingButAWholeDecimalThatFits) {
  for (const char* text : {"-1", "+3", " 5", "5 ", "0x10", "", "12x"}) {
    EXPECT_FALSE(parse_number<unsigned>(text).has_value())
        << "'" << text << "'";
    EXPECT_FALSE(parse_number<std::uint64_t>(text).has_value())
        << "'" << text << "'";
  }
  EXPECT_FALSE(parse_number<unsigned>("4294967296").has_value());
  EXPECT_FALSE(parse_number<unsigned>("4294967298").has_value());
  EXPECT_FALSE(
      parse_number<std::uint64_t>("18446744073709551616").has_value());
}

TEST(ParseNumber, AcceptsWholeDecimalsUpToEachTypesMaximum) {
  EXPECT_EQ(parse_number<unsigned>("0"), 0u);
  EXPECT_EQ(parse_number<unsigned>("42"), 42u);
  EXPECT_EQ(parse_number<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parse_number<std::uint64_t>("42"), 42u);
  EXPECT_EQ(parse_number<unsigned>("4294967295"),
            std::numeric_limits<unsigned>::max());
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

// --- bitops --------------------------------------------------------------------

TEST(BitOps, Popcount) {
  EXPECT_EQ(popcount(0u), 0);
  EXPECT_EQ(popcount(1u), 1);
  EXPECT_EQ(popcount(0xFFFFFFFFu), 32);
  EXPECT_EQ(popcount(0xAAAAAAAAu), 16);
}

TEST(BitOps, ToggledBits) {
  EXPECT_EQ(toggled_bits(0u, 0u), 0);
  EXPECT_EQ(toggled_bits(0u, 0xFFFFFFFFu), 32);
  EXPECT_EQ(toggled_bits(0xF0F0F0F0u, 0x0F0F0F0Fu), 32);
  EXPECT_EQ(toggled_bits(0b1010u, 0b1000u), 1);
}

TEST(BitOps, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(BitOps, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_exact(32), 5u);
  EXPECT_EQ(log2_exact(1024), 10u);
}

TEST(BitOps, BitOfAndLowMask) {
  EXPECT_EQ(bit_of(0b1010, 1), 1u);
  EXPECT_EQ(bit_of(0b1010, 0), 0u);
  EXPECT_EQ(low_mask(0), 0ull);
  EXPECT_EQ(low_mask(3), 0b111ull);
  EXPECT_EQ(low_mask(32), 0xFFFFFFFFull);
}

// --- PiecewiseLinear -------------------------------------------------------------

TEST(BitOps, WordArrayBitmask) {
  EXPECT_EQ(bitmask_words(0), 0u);
  EXPECT_EQ(bitmask_words(1), 1u);
  EXPECT_EQ(bitmask_words(64), 1u);
  EXPECT_EQ(bitmask_words(65), 2u);
  std::vector<std::uint64_t> words(bitmask_words(130), 0);
  for (const std::size_t i : {0u, 63u, 64u, 129u}) {
    EXPECT_FALSE(test_bit(words.data(), i));
    set_bit(words.data(), i);
    EXPECT_TRUE(test_bit(words.data(), i));
  }
  clear_bit(words.data(), 64);
  EXPECT_FALSE(test_bit(words.data(), 64));
  EXPECT_TRUE(test_bit(words.data(), 63));
  EXPECT_TRUE(test_bit(words.data(), 129));
}

TEST(BitOps, ForEachSetBit) {
  std::vector<unsigned> seen;
  for_each_set_bit(0b1010'0001u, 100, [&](unsigned i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<unsigned>{100, 105, 107}));
  seen.clear();
  for_each_set_bit(std::uint64_t{0}, 0, [&](unsigned i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
}

TEST(BitOps, CyclicFirst) {
  const auto is_set = [](std::uint64_t mask) {
    return [mask](unsigned i) { return ((mask >> i) & 1u) != 0; };
  };
  EXPECT_EQ(cyclic_first(8, 0, is_set(0b0001'0000)), 4u);
  EXPECT_EQ(cyclic_first(8, 5, is_set(0b0001'0000)), 4u);  // wraps
  EXPECT_EQ(cyclic_first(8, 4, is_set(0b0001'0000)), 4u);  // start itself
  EXPECT_EQ(cyclic_first(8, 3, is_set(0)), 8u);            // none -> n
}

TEST(BitOps, FirstSetCyclicMatchesProbeWalk) {
  // The O(1) mask form must agree with the O(n) pointer walk on every
  // (mask, start) pair it is defined for — the equivalence the packet-lane
  // iSLIP relies on to mirror the scalar arbiter's pointer order.
  Rng rng{2024};
  for (const unsigned n : {1u, 7u, 8u, 33u, 64u}) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t mask =
          (n == 64 ? rng.next_u64() : rng.next_u64() & low_mask(n));
      if (mask == 0) continue;
      const auto start = static_cast<unsigned>(rng.next_below(n));
      EXPECT_EQ(first_set_cyclic(mask, start, n),
                cyclic_first(n, start,
                             [&](unsigned i) { return ((mask >> i) & 1u) != 0; }))
          << "n " << n << " mask " << mask << " start " << start;
    }
  }
}

TEST(PiecewiseLinear, ExactAtCalibrationPoints) {
  const PiecewiseLinear t{{1.0, 10.0}, {2.0, 20.0}, {4.0, 10.0}};
  EXPECT_DOUBLE_EQ(t(1.0), 10.0);
  EXPECT_DOUBLE_EQ(t(2.0), 20.0);
  EXPECT_DOUBLE_EQ(t(4.0), 10.0);
}

TEST(PiecewiseLinear, InterpolatesBetweenPoints) {
  const PiecewiseLinear t{{0.0, 0.0}, {10.0, 100.0}};
  EXPECT_DOUBLE_EQ(t(5.0), 50.0);
  EXPECT_DOUBLE_EQ(t(2.5), 25.0);
}

TEST(PiecewiseLinear, ExtrapolatesFromEndSegments) {
  const PiecewiseLinear t{{0.0, 0.0}, {1.0, 1.0}, {2.0, 4.0}};
  EXPECT_DOUBLE_EQ(t(3.0), 7.0);    // slope 3 continues
  EXPECT_DOUBLE_EQ(t(-1.0), -1.0);  // slope 1 continues
}

TEST(PiecewiseLinear, AtLeastClampsBelow) {
  const PiecewiseLinear t{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(t.at_least(-5.0, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(t.at_least(0.9, 0.25), 0.9);
}

TEST(PiecewiseLinear, SortsUnorderedInput) {
  const PiecewiseLinear t{{4.0, 40.0}, {1.0, 10.0}, {2.0, 20.0}};
  EXPECT_DOUBLE_EQ(t(1.5), 15.0);
  EXPECT_DOUBLE_EQ(t.min_x(), 1.0);
  EXPECT_DOUBLE_EQ(t.max_x(), 4.0);
}

TEST(PiecewiseLinear, RejectsDuplicateX) {
  EXPECT_THROW((PiecewiseLinear{{1.0, 1.0}, {1.0, 2.0}}),
               std::invalid_argument);
}

TEST(PiecewiseLinear, EmptyTableThrows) {
  const PiecewiseLinear t;
  EXPECT_TRUE(t.empty());
  EXPECT_THROW((void)t(1.0), std::logic_error);
  EXPECT_THROW((void)t.min_x(), std::logic_error);
}

TEST(PiecewiseLinear, SinglePointIsConstant) {
  const PiecewiseLinear t{{3.0, 42.0}};
  EXPECT_DOUBLE_EQ(t(-100.0), 42.0);
  EXPECT_DOUBLE_EQ(t(100.0), 42.0);
}

// --- units ---------------------------------------------------------------------

TEST(Units, RelativeMagnitudes) {
  EXPECT_DOUBLE_EQ(units::pJ / units::fJ, 1000.0);
  EXPECT_DOUBLE_EQ(units::nJ / units::pJ, 1000.0);
  EXPECT_DOUBLE_EQ(units::GHz / units::MHz, 1000.0);
  EXPECT_DOUBLE_EQ(units::um / units::nm, 1000.0);
  EXPECT_DOUBLE_EQ(units::mW * 1000.0, units::W);
}

}  // namespace
}  // namespace sfab
