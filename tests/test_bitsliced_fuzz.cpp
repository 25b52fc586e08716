// Differential fuzz harness for the multi-word bit-sliced engine.
//
// Random netlists (random gate mix, depth, DFF placement, energy scales)
// are simulated at every block width W ∈ {1, 2, 4, 8} — including ragged
// lane counts that don't fill the last word — and pinned two ways:
//
//  1. Reference pinning: the engine with per-lane accounting enabled (the
//     generic portable path) must match the scalar reference engine
//     lane-for-lane — same net values every cycle's end state, same
//     per-lane toggle counts, same per-lane energy down to the last double
//     bit — when each lane is driven with the identical bit stream
//     (BitRng over the lane's global stream seed).
//
//  2. Kernel differential: the runtime-detected SIMD kernel (when the CPU
//     has one) must match the portable kernel bit-for-bit on live-lane net
//     words, aggregate toggles, aggregate energy (identical FP sequence),
//     and every per-gate toggle counter, under the same stimulus.
//
// Together these chain the SIMD fast path to the scalar reference at
// every width: SIMD ≡ portable (exact) and portable ≡ scalar (per lane).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "gatelevel/bitsliced.hpp"
#include "gatelevel/gates.hpp"
#include "gatelevel/lane_kernels.hpp"
#include "gatelevel/netlist.hpp"

namespace sfab::gatelevel {
namespace {

/// A random DAG netlist: every gate reads already-driven nets, with DFFs
/// sprinkled in (their outputs feed later gates, exercising latch lanes).
Netlist random_netlist(std::uint64_t seed, unsigned n_inputs,
                       unsigned n_gates, double energy_scale) {
  Rng rng{seed};
  Netlist nl;
  std::vector<NetId> driven;
  for (unsigned i = 0; i < n_inputs; ++i) {
    const NetId net = nl.add_net("in" + std::to_string(i));
    nl.mark_input(net);
    driven.push_back(net);
  }
  constexpr GateType kTypes[] = {
      GateType::kBuf,  GateType::kInv,   GateType::kAnd2,
      GateType::kOr2,  GateType::kNand2, GateType::kNor2,
      GateType::kXor2, GateType::kMux2,  GateType::kDff};
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
  nl.set_energy_scale(energy_scale);
  nl.finalize();
  return nl;
}

/// Drives `engine` for `steps` cycles with LaneRngBlock stimulus over all
/// primary inputs (every input redrawn every cycle; the global stream of
/// input i at lane k is stream k·n_inputs-interleaved, identical for every
/// block width by LaneRngBlock's contract).
void drive_block_engine(BitslicedNetlist& engine, unsigned steps,
                        std::uint64_t seed) {
  const unsigned words = engine.words();
  LaneRngBlock rng(seed, words);
  std::vector<std::uint64_t> blocks(engine.num_inputs() * words, 0);
  for (unsigned c = 0; c < steps; ++c) {
    for (std::size_t i = 0; i < engine.num_inputs(); ++i) {
      rng.next_block(blocks.data() + i * words);
    }
    engine.step(blocks);
  }
}

/// Scalar replay of lane `lane`: the reference engine driven with the bit
/// stream LaneRngBlock hands that lane.
void drive_scalar_lane(Netlist& nl, unsigned steps, std::uint64_t seed,
                       unsigned lane) {
  nl.reset();
  BitRng bits{Rng{derive_stream_seed(seed, lane)}};
  std::vector<bool> stimulus(nl.inputs().size(), false);
  for (unsigned c = 0; c < steps; ++c) {
    for (std::size_t i = 0; i < stimulus.size(); ++i) {
      stimulus[i] = bits.next_bit();
    }
    nl.step(stimulus);
  }
}

struct FuzzCase {
  std::uint64_t seed;
  unsigned inputs;
  unsigned gates;
  double energy_scale;
};

const FuzzCase kCases[] = {
    {0x1001, 3, 40, 1.0},    {0x2002, 6, 120, 0.37},
    {0x3003, 10, 200, 2.5},  {0x4004, 4, 80, 0.085},
    {0x5005, 8, 150, 1.0},
};

// Full words, ragged tails (including a tail of a single lane), and the
// narrowest/widest extremes. Words spanned: 1, 2, 3, 4, 7, 8.
const unsigned kLaneCounts[] = {1, 7, 64, 65, 100, 128, 130,
                                200, 256, 420, 511, 512};

TEST(BitslicedFuzz, EveryWidthMatchesScalarReferenceLaneForLane) {
  for (const FuzzCase& fuzz : kCases) {
    Netlist nl = random_netlist(fuzz.seed, fuzz.inputs, fuzz.gates,
                                fuzz.energy_scale);
    const unsigned steps = 24;

    // Scalar reference per lane, computed once for the widest population
    // and reused for the narrower ones (lane streams are global).
    constexpr unsigned kMaxLanes = BitslicedNetlist::kMaxLanes;
    std::vector<std::uint64_t> ref_toggles(kMaxLanes, 0);
    std::vector<double> ref_energy(kMaxLanes, 0.0);
    std::vector<std::vector<bool>> ref_values(kMaxLanes);
    for (unsigned lane = 0; lane < kMaxLanes; ++lane) {
      drive_scalar_lane(nl, steps, fuzz.seed, lane);
      ref_toggles[lane] = nl.toggles();
      ref_energy[lane] = nl.energy_j();
      ref_values[lane].resize(nl.num_nets());
      for (NetId net = 0; net < nl.num_nets(); ++net) {
        ref_values[lane][net] = nl.value(net);
      }
    }

    for (const unsigned lanes : kLaneCounts) {
      BitslicedNetlist engine(nl, lanes, LaneKernel::kPortable);
      engine.set_lane_accounting(true);
      drive_block_engine(engine, steps, fuzz.seed);

      std::uint64_t lane_toggle_sum = 0;
      for (unsigned lane = 0; lane < lanes; ++lane) {
        ASSERT_EQ(engine.lane_toggles(lane), ref_toggles[lane])
            << "case " << fuzz.seed << " lanes " << lanes << " lane " << lane;
        // Exact double equality is the point: the per-lane replay adds the
        // same coefficients in the same order as the scalar engine.
        ASSERT_EQ(engine.lane_energy_j(lane), ref_energy[lane])
            << "case " << fuzz.seed << " lanes " << lanes << " lane " << lane;
        for (NetId net = 0; net < nl.num_nets(); ++net) {
          ASSERT_EQ(engine.value(net, lane), ref_values[lane][net])
              << "case " << fuzz.seed << " lanes " << lanes << " lane "
              << lane << " net " << net;
        }
        lane_toggle_sum += ref_toggles[lane];
      }
      // Dead tail lanes contributed nothing to the aggregates.
      EXPECT_EQ(engine.toggles(), lane_toggle_sum)
          << "case " << fuzz.seed << " lanes " << lanes;
    }
  }
}

TEST(BitslicedFuzz, SimdKernelMatchesPortableBitForBit) {
  // Every SIMD kernel this CPU/build can run is pinned to the portable
  // reference — not just the kAuto pick, so an AVX-512 machine still
  // differentially tests its AVX2 kernel (and vice versa nothing is
  // silently skipped when kAuto prefers the wider ISA).
  std::vector<LaneKernel> kernels;
  for (const LaneKernel kernel : {LaneKernel::kAvx2, LaneKernel::kAvx512}) {
    if (lane_kernel_available(kernel)) kernels.push_back(kernel);
  }
  if (kernels.empty()) {
    GTEST_SKIP() << "no SIMD kernel available on this CPU/build";
  }
  for (const LaneKernel kernel : kernels) {
    for (const FuzzCase& fuzz : kCases) {
      Netlist nl = random_netlist(fuzz.seed, fuzz.inputs, fuzz.gates,
                                  fuzz.energy_scale);
      const unsigned steps = 24;
      for (const unsigned lanes : kLaneCounts) {
        BitslicedNetlist portable(nl, lanes, LaneKernel::kPortable);
        BitslicedNetlist simd(nl, lanes, kernel);
        ASSERT_EQ(simd.kernel(), kernel);
        drive_block_engine(portable, steps, fuzz.seed);
        drive_block_engine(simd, steps, fuzz.seed);

        EXPECT_EQ(simd.toggles(), portable.toggles())
            << to_string(kernel) << " case " << fuzz.seed << " lanes "
            << lanes;
        // Identical FP accumulation sequence, so exact equality — not NEAR.
        EXPECT_EQ(simd.energy_j(), portable.energy_j())
            << to_string(kernel) << " case " << fuzz.seed << " lanes "
            << lanes;
        ASSERT_EQ(simd.op_toggle_counts(), portable.op_toggle_counts())
            << to_string(kernel) << " case " << fuzz.seed << " lanes "
            << lanes;
        ASSERT_EQ(simd.dff_toggle_counts(), portable.dff_toggle_counts())
            << to_string(kernel) << " case " << fuzz.seed << " lanes "
            << lanes;
        for (NetId net = 0; net < nl.num_nets(); ++net) {
          for (unsigned w = 0; w < simd.words(); ++w) {
            const std::uint64_t live = w + 1 == simd.words()
                                           ? last_word_lane_mask(lanes)
                                           : ~std::uint64_t{0};
            ASSERT_EQ(simd.word(net, w) & live, portable.word(net, w) & live)
                << to_string(kernel) << " case " << fuzz.seed << " lanes "
                << lanes << " net " << net << " word " << w;
          }
        }
      }
    }
  }
}

TEST(BitslicedFuzz, RaggedTailLanesStayDead) {
  // A ragged block's dead lanes must contribute no toggles and no energy:
  // the 100-lane engine's aggregates equal the sum of the first 100
  // scalar lanes even though the engine computes 128 lanes of values.
  Netlist nl = random_netlist(0xDEAD, 5, 90, 1.0);
  const unsigned steps = 16;
  BitslicedNetlist ragged(nl, 100, LaneKernel::kPortable);
  ragged.set_lane_accounting(true);
  drive_block_engine(ragged, steps, 0xFEED);

  std::uint64_t want_toggles = 0;
  for (unsigned lane = 0; lane < 100; ++lane) {
    drive_scalar_lane(nl, steps, 0xFEED, lane);
    want_toggles += nl.toggles();
  }
  EXPECT_EQ(ragged.toggles(), want_toggles);
  EXPECT_EQ(ragged.words(), 2u);
  EXPECT_THROW((void)ragged.value(0, 100), std::out_of_range);
  EXPECT_THROW((void)ragged.lane_energy_j(100), std::out_of_range);
}

}  // namespace
}  // namespace sfab::gatelevel
