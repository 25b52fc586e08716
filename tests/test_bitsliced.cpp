// Scalar-equivalence harness for the 64-lane bit-sliced gate-level engine.
//
// The contract under test (gatelevel/bitsliced.hpp): lane k of a
// bit-sliced run driven with LaneRngBlock stream k behaves *bit-for-bit*
// like the retained scalar reference engine driven with the same bit
// stream (BitRng over the same per-lane seed) — same net values every
// cycle, same per-lane toggle counts, and the same per-lane energy down
// to the last double bit, because the per-lane accounting replays the
// scalar accumulation order exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gatelevel/bitsliced.hpp"
#include "gatelevel/gates.hpp"
#include "gatelevel/netlist.hpp"
#include "gatelevel/power_sim.hpp"
#include "gatelevel/switch_netlists.hpp"

namespace sfab::gatelevel {
namespace {

constexpr unsigned kLanes = BitslicedNetlist::kLanes;

/// Drives `harness` for `steps` cycles under `mask` with the bit-sliced
/// engine at `lanes` Monte-Carlo lanes (lane accounting on), then replays
/// every lane through the scalar engine with the identical bit stream and
/// demands exact agreement on per-lane toggles, energy, final net values —
/// and that the aggregate toggle counter is the sum over lanes.
void expect_lane_equivalence(SwitchHarness& harness, std::uint32_t mask,
                             unsigned steps, std::uint64_t seed,
                             unsigned lanes = kLanes) {
  const MaskDrive drive = harness.drive_schedule(mask);
  Netlist& nl = harness.netlist;

  BitslicedNetlist sliced(nl, lanes);
  sliced.set_lane_accounting(true);
  const unsigned block_words = sliced.words();
  LaneRngBlock lane_rng{seed, block_words};
  std::vector<std::uint64_t> blocks(nl.inputs().size() * block_words, 0);
  for (unsigned c = 0; c < steps; ++c) {
    std::fill(blocks.begin(), blocks.end(), 0);
    for (const auto& [pin, active] : drive.forced) {
      const std::uint64_t value = active ? ~std::uint64_t{0} : 0;
      for (unsigned w = 0; w < block_words; ++w) {
        blocks[pin * block_words + w] = value;
      }
    }
    for (const std::size_t pin : drive.random) {
      lane_rng.next_block(blocks.data() + pin * block_words);
    }
    sliced.step(blocks);
  }

  std::uint64_t lane_toggle_sum = 0;
  std::vector<bool> stimulus(nl.inputs().size(), false);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    nl.reset();
    BitRng bits{Rng{derive_stream_seed(seed, lane)}};
    for (unsigned c = 0; c < steps; ++c) {
      std::fill(stimulus.begin(), stimulus.end(), false);
      for (const auto& [pin, active] : drive.forced) stimulus[pin] = active;
      for (const std::size_t pin : drive.random) {
        stimulus[pin] = bits.next_bit();
      }
      nl.step(stimulus);
    }
    ASSERT_EQ(sliced.lane_toggles(lane), nl.toggles()) << "lane " << lane;
    // Exact double equality is the point: the per-lane replay adds the
    // same coefficients in the same order as the scalar engine.
    ASSERT_EQ(sliced.lane_energy_j(lane), nl.energy_j()) << "lane " << lane;
    for (NetId net = 0; net < nl.num_nets(); ++net) {
      ASSERT_EQ(sliced.value(net, lane), nl.value(net))
          << "lane " << lane << " net " << net;
    }
    lane_toggle_sum += nl.toggles();
  }
  EXPECT_EQ(sliced.toggles(), lane_toggle_sum);
}

/// A random DAG netlist: every gate reads already-driven nets, with DFFs
/// sprinkled in (their outputs feed later gates, exercising latch lanes).
Netlist random_netlist(std::uint64_t seed, unsigned n_inputs,
                       unsigned n_gates) {
  Rng rng{seed};
  Netlist nl;
  std::vector<NetId> driven;
  for (unsigned i = 0; i < n_inputs; ++i) {
    const NetId net = nl.add_net("in" + std::to_string(i));
    nl.mark_input(net);
    driven.push_back(net);
  }
  constexpr GateType kTypes[] = {
      GateType::kBuf,  GateType::kInv,  GateType::kAnd2,
      GateType::kOr2,  GateType::kNand2, GateType::kNor2,
      GateType::kXor2, GateType::kMux2, GateType::kDff};
  for (unsigned g = 0; g < n_gates; ++g) {
    const GateType type = kTypes[rng.next_below(std::size(kTypes))];
    std::vector<NetId> pins;
    for (unsigned p = 0; p < input_count(type); ++p) {
      pins.push_back(driven[rng.next_below(driven.size())]);
    }
    const NetId out = nl.add_net("g" + std::to_string(g));
    nl.add_gate(type, pins, out);
    driven.push_back(out);
  }
  nl.finalize();
  return nl;
}

// --- lane evaluation primitive ---------------------------------------------------

TEST(EvaluateLanes, MatchesScalarTruthTables) {
  constexpr GateType kComb[] = {
      GateType::kBuf,  GateType::kInv,  GateType::kAnd2,
      GateType::kOr2,  GateType::kNand2, GateType::kNor2,
      GateType::kXor2, GateType::kMux2};
  for (const GateType type : kComb) {
    const unsigned pins = input_count(type);
    for (std::uint32_t mask = 0; mask < (1u << pins); ++mask) {
      // Broadcast each pin value to all 64 lanes; the result must be the
      // scalar truth-table value in every lane.
      const auto lane_word = [&](unsigned pin) {
        return ((mask >> pin) & 1u) ? ~std::uint64_t{0} : std::uint64_t{0};
      };
      const std::uint64_t got =
          evaluate_lanes(type, lane_word(0), lane_word(1), lane_word(2));
      const std::uint64_t want =
          evaluate(type, mask) ? ~std::uint64_t{0} : std::uint64_t{0};
      EXPECT_EQ(got, want) << to_string(type) << " mask " << mask;
    }
  }
}

TEST(EvaluateLanes, LanesAreIndependent) {
  // Mixed lane patterns: lane k of the output only ever reads lane k of
  // the operands.
  const std::uint64_t a = 0xAAAAAAAAAAAAAAAAull;
  const std::uint64_t b = 0xF0F0F0F0F0F0F0F0ull;
  const std::uint64_t s = 0xFF00FF00FF00FF00ull;
  const std::uint64_t got = evaluate_lanes(GateType::kMux2, a, b, s);
  for (unsigned lane = 0; lane < 64; ++lane) {
    const std::uint32_t mask =
        static_cast<std::uint32_t>((a >> lane) & 1u) |
        (static_cast<std::uint32_t>((b >> lane) & 1u) << 1) |
        (static_cast<std::uint32_t>((s >> lane) & 1u) << 2);
    EXPECT_EQ(((got >> lane) & 1u) != 0, evaluate(GateType::kMux2, mask))
        << "lane " << lane;
  }
}

// --- engine basics ---------------------------------------------------------------

TEST(Bitsliced, RequiresFinalizedNetlist) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_input(a);
  EXPECT_THROW((void)BitslicedNetlist(nl), std::invalid_argument);
}

TEST(Bitsliced, DffLanesAreIndependentAndDelayed) {
  Netlist nl;
  const NetId d = nl.add_net("d");
  nl.mark_input(d);
  const NetId q = nl.add_net("q");
  nl.add_gate(GateType::kDff, {d}, q);
  nl.finalize();

  BitslicedNetlist sliced(nl);
  const std::uint64_t w1 = 0xDEADBEEFCAFEF00Dull;
  const std::uint64_t w2 = 0x0123456789ABCDEFull;
  sliced.step({w1});
  EXPECT_EQ(sliced.word(q), 0u);  // latched at the boundary
  sliced.step({w2});
  EXPECT_EQ(sliced.word(q), w1);  // every lane sees its own delayed bit
  sliced.step({0});
  EXPECT_EQ(sliced.word(q), w2);
}

TEST(Bitsliced, MultiWordDffBlocksLatchPerLane) {
  Netlist nl;
  const NetId d = nl.add_net("d");
  nl.mark_input(d);
  const NetId q = nl.add_net("q");
  nl.add_gate(GateType::kDff, {d}, q);
  nl.finalize();

  BitslicedNetlist sliced(nl, 256);  // 4 words per block
  ASSERT_EQ(sliced.words(), 4u);
  const std::vector<std::uint64_t> block1 = {0xDEADBEEFCAFEF00Dull, 0x1ull,
                                             0x8000000000000000ull, 0x5A5Aull};
  const std::vector<std::uint64_t> block2(4, 0x0123456789ABCDEFull);
  sliced.step(block1);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(sliced.word(q, w), 0u);
  sliced.step(block2);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(sliced.word(q, w), block1[w]);
  sliced.step(std::vector<std::uint64_t>(4, 0));
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(sliced.word(q, w), block2[w]);
}

TEST(Bitsliced, RejectsBadLaneCounts) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_input(a);
  const NetId out = nl.add_net("out");
  nl.add_gate(GateType::kBuf, {a}, out);
  nl.finalize();
  EXPECT_THROW((void)BitslicedNetlist(nl, 0), std::invalid_argument);
  EXPECT_THROW((void)BitslicedNetlist(nl, 513), std::invalid_argument);
}

TEST(Bitsliced, PopcountTogglesAndEnergy) {
  // One inverter, no fanout: each toggle costs exactly toggle_j, and the
  // aggregate accumulators advance popcount-at-a-time.
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_input(a);
  const NetId out = nl.add_net("out");
  nl.add_gate(GateType::kInv, {a}, out);
  nl.finalize();

  BitslicedNetlist sliced(nl);
  sliced.set_lane_accounting(true);
  sliced.step({0});  // INV output rises in all 64 lanes
  EXPECT_EQ(sliced.toggles(), 64u);
  const double coeff = energy_of(GateType::kInv).toggle_j;
  EXPECT_DOUBLE_EQ(sliced.energy_j(), coeff * 64);

  sliced.step({0xFFFFFFFF00000000ull});  // falls in the upper 32 lanes only
  EXPECT_EQ(sliced.toggles(), 96u);
  EXPECT_DOUBLE_EQ(sliced.energy_j(), coeff * 96);
  for (unsigned lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(sliced.lane_toggles(lane), 1u) << lane;
  }
  for (unsigned lane = 32; lane < 64; ++lane) {
    EXPECT_EQ(sliced.lane_toggles(lane), 2u) << lane;
  }

  sliced.reset();
  EXPECT_EQ(sliced.toggles(), 0u);
  EXPECT_DOUBLE_EQ(sliced.energy_j(), 0.0);
  EXPECT_EQ(sliced.lane_toggles(0), 0u);
}

TEST(Bitsliced, AggregateEnergyTracksLaneSum) {
  // The popcount aggregate and the per-lane replay are different
  // floating-point summation orders of the same physical events; they must
  // agree to rounding error.
  SwitchHarness h = build_banyan_switch(8);
  const MaskDrive drive = h.drive_schedule(0b11u);
  BitslicedNetlist sliced(h.netlist);
  sliced.set_lane_accounting(true);
  LaneRngBlock rng{5, 1};
  std::vector<std::uint64_t> words(h.netlist.inputs().size(), 0);
  for (unsigned c = 0; c < 64; ++c) {
    std::fill(words.begin(), words.end(), 0);
    for (const auto& [pin, active] : drive.forced) {
      words[pin] = active ? ~std::uint64_t{0} : 0;
    }
    for (const std::size_t pin : drive.random) rng.next_block(&words[pin]);
    sliced.step(words);
  }
  double lane_sum = 0.0;
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    lane_sum += sliced.lane_energy_j(lane);
  }
  EXPECT_NEAR(sliced.energy_j(), lane_sum, 1e-9 * lane_sum);
}

// --- scalar equivalence across the switch harnesses ------------------------------

TEST(BitslicedEquivalence, Crosspoint) {
  SwitchHarness h = build_crosspoint(8);
  expect_lane_equivalence(h, 0b1u, 48, 0xA11CEull);
}

TEST(BitslicedEquivalence, BanyanSwitchAllMasks) {
  for (const std::uint32_t mask : all_masks(2)) {
    SwitchHarness h = build_banyan_switch(8);
    expect_lane_equivalence(h, mask, 40, 0xB0B0ull + mask);
  }
}

TEST(BitslicedEquivalence, BanyanSwitchAtEveryBlockWidth) {
  // Multi-word lane blocks, including a ragged count that leaves the last
  // word partially populated: every live lane still replays the scalar
  // reference exactly.
  for (const unsigned lanes : {128u, 200u, 256u, 512u}) {
    SwitchHarness h = build_banyan_switch(8);
    expect_lane_equivalence(h, 0b11u, 32, 0xB1DEull + lanes, lanes);
  }
}

TEST(BitslicedEquivalence, SorterSwitch) {
  SwitchHarness h = build_sorter_switch(8);
  expect_lane_equivalence(h, 0b11u, 40, 0x50F7ull);
}

TEST(BitslicedEquivalence, Mux) {
  SwitchHarness h = build_mux(8, 4);
  expect_lane_equivalence(h, 0xFFu, 40, 0x3A3A3ull);
}

TEST(BitslicedEquivalence, MuxAtWidestBlock) {
  SwitchHarness h = build_mux(8, 4);
  expect_lane_equivalence(h, 0xFFu, 24, 0x3B3B3ull,
                          BitslicedNetlist::kMaxLanes);
}

TEST(BitslicedEquivalence, RandomNetlists) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Netlist nl = random_netlist(seed, 6, 120);
    SwitchHarness h;  // wrap: every input is one "data pin" of one port
    h.netlist = std::move(nl);
    h.port_data.resize(1);
    for (std::size_t i = 0; i < h.netlist.inputs().size(); ++i) {
      h.port_data[0].push_back(i);
    }
    h.port_addr = {{}};
    h.port_valid = {SwitchHarness::npos};
    h.bits_per_port = static_cast<unsigned>(h.netlist.inputs().size());
    expect_lane_equivalence(h, 0b1u, 32, seed * 7919);
  }
}

TEST(BitslicedEquivalence, RespectsEnergyScale) {
  SwitchHarness h = build_banyan_switch(4);
  h.netlist.set_energy_scale(0.37);
  expect_lane_equivalence(h, 0b11u, 32, 0x5CA1Eull);
}

// --- characterize() fast path ----------------------------------------------------

TEST(BitslicedCharacterize, DeterministicAndMatchesLutShape) {
  SwitchHarness h1 = build_banyan_switch(8);
  SwitchHarness h2 = build_banyan_switch(8);
  const CharacterizationConfig cfg{4000, 64, 7,
                                   CharacterizeEngine::kBitsliced};
  const auto a = characterize_two_port_lut(h1, cfg);
  const auto b = characterize_two_port_lut(h2, cfg);
  for (int m = 0; m < 4; ++m) EXPECT_DOUBLE_EQ(a[m], b[m]);
  EXPECT_GT(a[0b01], 0.0);
  EXPECT_GT(a[0b11], a[0b01]);
}

}  // namespace
}  // namespace sfab::gatelevel
