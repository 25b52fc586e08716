// Tests for the packet arena: the word slab behind the reference routers'
// packet handles, with exact-size block recycling.
#include <gtest/gtest.h>

#include "traffic/arena.hpp"
#include "traffic/packet.hpp"

namespace sfab {
namespace {

Packet alloc_packet(PacketArena& arena, std::uint32_t words,
                    std::uint64_t id = 0) {
  Packet p;
  p.id = id;
  p.source = 0;
  p.dest = 1;
  p.word_count = words;
  p.word_offset = arena.allocate(words);
  return p;
}

// --- PacketArena ------------------------------------------------------------

TEST(PacketArena, AllocatesDistinctBlocks) {
  PacketArena arena;
  const Packet a = alloc_packet(arena, 8);
  const Packet b = alloc_packet(arena, 8);
  EXPECT_NE(a.word_offset, b.word_offset);
  EXPECT_EQ(arena.live_packets(), 2u);
  EXPECT_EQ(arena.slab_words(), 16u);

  arena.words(a)[0] = 0xAAAAu;
  arena.words(b)[0] = 0xBBBBu;
  EXPECT_EQ(arena.header(a), 0xAAAAu);
  EXPECT_EQ(arena.header(b), 0xBBBBu);
}

TEST(PacketArena, RecyclesExactSizeBlocks) {
  PacketArena arena;
  Packet a = alloc_packet(arena, 16);
  const std::uint32_t offset = a.word_offset;
  arena.release(a);
  EXPECT_EQ(arena.live_packets(), 0u);

  // Same size comes back from the free list at the same offset...
  const Packet b = alloc_packet(arena, 16);
  EXPECT_EQ(b.word_offset, offset);
  EXPECT_EQ(arena.recycled(), 1u);
  // ...while a different size takes fresh slab space.
  const Packet c = alloc_packet(arena, 8);
  EXPECT_EQ(c.word_offset, 16u);
  EXPECT_EQ(arena.recycled(), 1u);
}

TEST(PacketArena, SteadyStateChurnStopsGrowingTheSlab) {
  PacketArena arena;
  // Warm up: 4 concurrent packets in flight.
  Packet live[4];
  for (int i = 0; i < 4; ++i) live[i] = alloc_packet(arena, 16);
  const std::size_t high_water = arena.slab_words();
  EXPECT_EQ(high_water, 4u * 16u);

  // Churn far beyond the slab size: release one, allocate one, thousands
  // of times. The slab must never grow again — that is the
  // allocation-free steady state the routers rely on.
  for (int round = 0; round < 10'000; ++round) {
    arena.release(live[round % 4]);
    live[round % 4] = alloc_packet(arena, 16);
    ASSERT_EQ(arena.slab_words(), high_water);
  }
  EXPECT_EQ(arena.recycled(), 10'000u);
  EXPECT_EQ(arena.live_packets(), 4u);
  EXPECT_EQ(arena.allocations(), 4u + 10'000u);
}

TEST(PacketArena, MixedSizesRecycleIndependently) {
  PacketArena arena;
  Packet small = alloc_packet(arena, 4);
  Packet big = alloc_packet(arena, 32);
  const std::uint32_t small_offset = small.word_offset;
  const std::uint32_t big_offset = big.word_offset;
  arena.release(small);
  arena.release(big);

  // Each size reclaims its own block, regardless of release order.
  EXPECT_EQ(alloc_packet(arena, 32).word_offset, big_offset);
  EXPECT_EQ(alloc_packet(arena, 4).word_offset, small_offset);
  EXPECT_EQ(arena.recycled(), 2u);
}

TEST(PacketArena, ViewSeesTheFilledWords) {
  PacketArena arena;
  PacketFactory factory{8, PayloadKind::kAlternating, 1};
  const Packet p = factory.make(arena, 2, 5, 0);
  const PacketView view = arena.view(p);
  EXPECT_EQ(view.size(), 8u);
  EXPECT_EQ(view.header(), 5u);  // header carries the destination
  EXPECT_EQ(view[1], 0xFFFFFFFFu);
  EXPECT_EQ(view[2], 0x00000000u);
  EXPECT_EQ(arena.word(p, 3), 0xFFFFFFFFu);
}

}  // namespace
}  // namespace sfab
