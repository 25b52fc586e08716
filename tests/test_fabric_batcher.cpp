// Tests for the bitonic sorter and the Batcher-Banyan fabric (Eq. 6).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "fabric/batcher_banyan.hpp"
#include "fabric/bitonic.hpp"
#include "power/analytical.hpp"

namespace sfab {
namespace {

// --- bitonic sorting network -------------------------------------------------------

TEST(Bitonic, ScheduleSizeIsTriangular) {
  EXPECT_EQ(bitonic_schedule(4).size(), 3u);    // n=2 -> 3
  EXPECT_EQ(bitonic_schedule(8).size(), 6u);    // n=3 -> 6
  EXPECT_EQ(bitonic_schedule(32).size(), 15u);  // n=5 -> 15
}

TEST(Bitonic, ScheduleSpansDescendWithinEachPhase) {
  const auto schedule = bitonic_schedule(16);
  for (std::size_t k = 1; k < schedule.size(); ++k) {
    if (schedule[k].phase == schedule[k - 1].phase) {
      EXPECT_EQ(schedule[k].span_log2 + 1, schedule[k - 1].span_log2);
    } else {
      EXPECT_EQ(schedule[k].phase, schedule[k - 1].phase + 1);
      EXPECT_EQ(schedule[k].span_log2, schedule[k].phase);
    }
  }
}

TEST(Bitonic, SortsRandomVectors) {
  Rng rng{99};
  for (const unsigned n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint64_t> keys(n);
      for (auto& k : keys) k = rng.next_below(1000);
      std::vector<std::uint64_t> expected = keys;
      std::sort(expected.begin(), expected.end());
      bitonic_sort(keys);
      EXPECT_EQ(keys, expected) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(Bitonic, SortsAdversarialPatterns) {
  for (const unsigned n : {8u, 16u}) {
    std::vector<std::uint64_t> descending(n), same(n, 7), alternating(n);
    for (unsigned i = 0; i < n; ++i) {
      descending[i] = n - i;
      alternating[i] = i % 2;
    }
    for (auto keys : {descending, same, alternating}) {
      auto expected = keys;
      std::sort(expected.begin(), expected.end());
      bitonic_sort(keys);
      EXPECT_EQ(keys, expected);
    }
  }
}

TEST(Bitonic, IdleSentinelsConcentrateActives) {
  // The Batcher-Banyan concentration property: idle inputs (+inf keys)
  // sort to the bottom, actives end up contiguous at the top, in order.
  constexpr std::uint64_t kIdle = ~0ull;
  std::vector<std::uint64_t> keys{kIdle, 5, kIdle, 1, kIdle, 3, kIdle, kIdle};
  bitonic_sort(keys);
  EXPECT_EQ(keys[0], 1u);
  EXPECT_EQ(keys[1], 3u);
  EXPECT_EQ(keys[2], 5u);
  for (std::size_t i = 3; i < keys.size(); ++i) EXPECT_EQ(keys[i], kIdle);
}

TEST(Bitonic, RejectsBadSizes) {
  EXPECT_THROW((void)bitonic_schedule(3), std::invalid_argument);
  EXPECT_THROW((void)bitonic_schedule(0), std::invalid_argument);
  std::vector<std::uint64_t> three(3);
  EXPECT_THROW((void)bitonic_sort(three), std::invalid_argument);
}

// --- the no-stall invariant ---------------------------------------------------------
// The packet engine moves every cycle's cohort through Batcher-Banyan in
// lockstep (BatcherStages in src/sim/lane_sim_engine.cpp). That is exact
// only if no stage can stall: a cohort with distinct destinations must
// leave the sorter sorted with its idle rows last, and the MSB-first banyan
// must route any such sorted cohort with no two words of one switch asking
// for one output. These tests check both halves exhaustively at 4, 8 and
// 16 ports and by 10^5 random draws each at 32 and 64.

/// Routes the destinations in `dest_mask`, ascending in rows 0..m-1,
/// through the MSB-first banyan of `n` rows. True when no switch ever
/// sends two words to one output and every word ends on its destination.
bool banyan_routes_sorted_cohort(std::uint64_t dest_mask, unsigned n) {
  constexpr unsigned kIdleRow = ~0u;
  std::vector<unsigned> rows(n, kIdleRow);
  unsigned m = 0;
  for_each_set_bit(dest_mask, 0, [&](unsigned dest) { rows[m++] = dest; });
  for (unsigned b = log2_exact(n); b-- > 0;) {
    const unsigned span = 1u << b;
    std::vector<unsigned> next(n, kIdleRow);
    for (unsigned row = 0; row < n; ++row) {
      if (rows[row] == kIdleRow) continue;
      const unsigned out = (row & ~span) | (rows[row] & span);
      if (next[out] != kIdleRow) return false;  // the switch conflicts
      next[out] = rows[row];
    }
    rows = next;
  }
  for (unsigned row = 0; row < n; ++row) {
    if (rows[row] != kIdleRow && rows[row] != row) return false;
  }
  return true;
}

/// A 0-1 sorter input (bit i = key of row i), or a destination set.
/// Densities vary, so near-empty and near-full cohorts are drawn too.
std::uint64_t random_mask(Rng& rng, unsigned n) {
  std::uint64_t mask = rng.next_u64();
  switch (rng.next_below(4)) {
    case 0:
      mask &= rng.next_u64() & rng.next_u64();
      break;
    case 1:
      mask |= rng.next_u64() | rng.next_u64();
      break;
    default:
      break;
  }
  return n == 64 ? mask : mask & low_mask(n);
}

/// Runs the 0-1 input `mask` (bit i = key of row i) through the sorter.
/// bitonic_sort also swaps equal keys in descending switches, where both
/// engines keep them in place; on keys alone the two are the same.
bool sorts_zero_one_input(std::uint64_t mask, unsigned n) {
  std::vector<std::uint64_t> keys(n);
  for (unsigned i = 0; i < n; ++i) keys[i] = (mask >> i) & 1;
  bitonic_sort(keys);
  return std::is_sorted(keys.begin(), keys.end());
}

TEST(BatcherInvariant, SorterSortsEveryZeroOneInput) {
  // By the 0-1 principle, a comparator network that sorts every 0-1 input
  // sorts every input: each cohort leaves the sorter sorted, idle rows
  // (+infinity keys) last.
  for (const unsigned n : {4u, 8u, 16u}) {
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
      ASSERT_TRUE(sorts_zero_one_input(mask, n))
          << "n " << n << " input " << mask;
    }
  }
  Rng rng{0x0151};
  for (const unsigned n : {32u, 64u}) {
    for (int draw = 0; draw < 100'000; ++draw) {
      const std::uint64_t mask = random_mask(rng, n);
      ASSERT_TRUE(sorts_zero_one_input(mask, n))
          << "n " << n << " input " << mask;
    }
  }
}

TEST(BatcherInvariant, BanyanRoutesEverySortedCohortWithoutConflict) {
  for (const unsigned n : {4u, 8u, 16u}) {
    for (std::uint64_t dests = 0; dests < (std::uint64_t{1} << n); ++dests) {
      ASSERT_TRUE(banyan_routes_sorted_cohort(dests, n))
          << "n " << n << " destinations " << dests;
    }
  }
  Rng rng{0xBA1A};
  for (const unsigned n : {32u, 64u}) {
    for (int draw = 0; draw < 100'000; ++draw) {
      const std::uint64_t dests = random_mask(rng, n);
      ASSERT_TRUE(banyan_routes_sorted_cohort(dests, n))
          << "n " << n << " destinations " << dests;
    }
  }
}

TEST(BatcherInvariant, DistinctDestinationCohortsNeverStallTheReference) {
  // The same property through the reference fabric: a fresh cohort of
  // distinct destinations every tick never stalls, and every word arrives
  // exactly depth() ticks after it was injected.
  struct TimingSink final : EgressSink {
    Word tick = 0;
    unsigned depth = 0;
    std::uint64_t delivered = 0;
    void deliver(PortId egress, const Flit& flit) override {
      EXPECT_EQ(egress, flit.dest);
      EXPECT_EQ(tick - flit.data, depth - 1);
      ++delivered;
    }
  };
  Rng rng{0xC0407};
  for (const unsigned n : {4u, 16u, 64u}) {
    FabricConfig config;
    config.ports = n;
    BatcherBanyanFabric fabric{config};
    TimingSink sink;
    sink.depth = fabric.depth();
    std::vector<PortId> dests(n);
    std::uint64_t id = 0;
    for (Word t = 0; t < 300; ++t) {
      std::iota(dests.begin(), dests.end(), PortId{0});
      for (unsigned i = n; i > 1; --i) {
        std::swap(dests[i - 1], dests[rng.next_below(i)]);
      }
      const std::uint64_t active = random_mask(rng, n);
      for_each_set_bit(active, 0, [&](unsigned i) {
        ASSERT_TRUE(fabric.can_accept(i));
        fabric.inject(i, Flit{t, dests[i], true, ++id});
      });
      sink.tick = t;
      fabric.tick(sink);
    }
    EXPECT_EQ(fabric.link_conflicts(), 0u) << n << " ports";
    EXPECT_EQ(sink.delivered, fabric.words_delivered());
    EXPECT_GT(sink.delivered, 0u);
  }
}

// --- Batcher-Banyan fabric ------------------------------------------------------------

struct RecordingSink final : EgressSink {
  std::vector<std::pair<PortId, Flit>> deliveries;
  std::map<PortId, std::vector<Word>> per_port;
  void deliver(PortId egress, const Flit& flit) override {
    deliveries.emplace_back(egress, flit);
    per_port[egress].push_back(flit.data);
  }
};

FabricConfig config_for(unsigned ports) {
  FabricConfig c;
  c.ports = ports;
  return c;
}

void drain(BatcherBanyanFabric& fabric, EgressSink& sink,
           unsigned max_ticks = 10'000) {
  for (unsigned t = 0; t < max_ticks && !fabric.idle(); ++t) fabric.tick(sink);
  ASSERT_TRUE(fabric.idle()) << "fabric failed to drain";
}

TEST(BatcherBanyan, DepthMatchesPaperFormula) {
  // 1/2 n(n+1) sorter stages + n banyan stages.
  EXPECT_EQ(BatcherBanyanFabric{config_for(4)}.depth(), 3u + 2u);
  EXPECT_EQ(BatcherBanyanFabric{config_for(16)}.depth(), 10u + 4u);
  EXPECT_EQ(BatcherBanyanFabric{config_for(32)}.depth(), 15u + 5u);
}

TEST(BatcherBanyan, RejectsTooFewPorts) {
  EXPECT_THROW((void)BatcherBanyanFabric{config_for(2)}, std::invalid_argument);
}

class BatcherRouting : public ::testing::TestWithParam<unsigned> {};

TEST_P(BatcherRouting, LonePacketReachesEveryDestination) {
  const unsigned ports = GetParam();
  for (PortId i = 0; i < ports; ++i) {
    for (PortId j = 0; j < ports; ++j) {
      BatcherBanyanFabric fabric{config_for(ports)};
      RecordingSink sink;
      fabric.inject(i, Flit{0xBEEFu, j, true, 1});
      drain(fabric, sink);
      ASSERT_EQ(sink.deliveries.size(), 1u) << "i=" << i << " j=" << j;
      EXPECT_EQ(sink.deliveries[0].first, j);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatcherRouting,
                         ::testing::Values(4u, 8u, 16u, 32u),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

TEST(BatcherBanyan, LonePacketLatencyIsDepth) {
  BatcherBanyanFabric fabric{config_for(16)};
  RecordingSink sink;
  fabric.inject(3, Flit{1u, 12, true, 1});
  unsigned ticks = 0;
  while (sink.deliveries.empty()) {
    fabric.tick(sink);
    ++ticks;
    ASSERT_LE(ticks, 64u);
  }
  EXPECT_EQ(ticks, fabric.depth());
}

TEST(BatcherBanyan, NoBuffersEver) {
  BatcherBanyanFabric fabric{config_for(8)};
  RecordingSink sink;
  for (int t = 0; t < 200; ++t) {
    for (PortId i = 0; i < 8; ++i) {
      if (fabric.can_accept(i)) {
        fabric.inject(i, Flit{static_cast<Word>(t), (i + 1) % 8, false, i});
      }
    }
    fabric.tick(sink);
  }
  drain(fabric, sink);
  EXPECT_DOUBLE_EQ(fabric.ledger().of(EnergyKind::kBuffer), 0.0);
}

TEST(BatcherBanyan, ConservationUnderPermutationTraffic) {
  const unsigned ports = 16;
  BatcherBanyanFabric fabric{config_for(ports)};
  RecordingSink sink;
  std::map<PortId, unsigned> sent;
  for (int t = 0; t < 400; ++t) {
    for (PortId i = 0; i < ports; ++i) {
      const PortId dest = (i * 5 + 3) % ports;  // a fixed permutation
      if (fabric.can_accept(i)) {
        fabric.inject(i, Flit{static_cast<Word>(t), dest, true, 0});
        ++sent[dest];
      }
    }
    fabric.tick(sink);
  }
  drain(fabric, sink);
  EXPECT_EQ(fabric.words_injected(), fabric.words_delivered());
  for (const auto& [egress, words] : sink.per_port) {
    EXPECT_EQ(words.size(), sent[egress]);
  }
}

TEST(BatcherBanyan, PacketWordOrderPreserved) {
  BatcherBanyanFabric fabric{config_for(8)};
  RecordingSink sink;
  Word next = 0;
  for (int t = 0; t < 200; ++t) {
    if (fabric.can_accept(2)) fabric.inject(2, Flit{next++, 6, false, 1});
    fabric.tick(sink);
  }
  drain(fabric, sink);
  const auto& words = sink.per_port[6];
  ASSERT_GT(words.size(), 100u);
  for (std::size_t k = 1; k < words.size(); ++k) {
    ASSERT_EQ(words[k], words[k - 1] + 1);
  }
}

class BatcherEq6 : public ::testing::TestWithParam<unsigned> {};

TEST_P(BatcherEq6, WorstCasePayloadMatchesAnalyticalModel) {
  // Eq. 6 charges every substage's full crossing wire regardless of route,
  // and our simulator follows that accounting, so any lone stream with
  // alternating payload must match the closed form exactly.
  const unsigned ports = GetParam();
  BatcherBanyanFabric fabric{config_for(ports)};
  RecordingSink sink;
  const int words = 64;
  for (int w = 0; w < words; ++w) {
    fabric.inject(0, Flit{(w % 2 == 0) ? 0xFFFFFFFFu : 0u, ports - 1,
                          w + 1 == words, 1});
    fabric.tick(sink);
  }
  drain(fabric, sink);
  const double per_bit = fabric.ledger().total() / (words * 32.0);
  const AnalyticalModel model;
  const double expected = model.batcher_banyan_bit_energy(ports);
  EXPECT_NEAR(per_bit, expected, 1e-6 * expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatcherEq6,
                         ::testing::Values(4u, 8u, 16u, 32u),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

TEST(BatcherBanyan, CostsMoreThanBanyanWithoutContention) {
  // The architectural trade the paper describes: Batcher-Banyan buys
  // contention freedom with extra stages, so an uncongested bit costs more.
  const AnalyticalModel model;
  for (const unsigned n : {4u, 8u, 16u, 32u}) {
    EXPECT_GT(model.batcher_banyan_bit_energy(n),
              model.banyan_bit_energy_no_contention(n));
  }
}

}  // namespace
}  // namespace sfab
