// Differential fuzz harness for the packet lane engine.
//
// Random configurations across every laned (arch, scheme) cell — crossbar,
// fully-connected, Batcher-Banyan, and banyan, each under VOQ/iSLIP and
// FIFO/HOL ingress, with randomized shape, traffic pattern, payload kind,
// scheduler depth, and (for banyan) node-FIFO capacity / skid / DRAM
// knobs — are replicated at ragged lane counts through
// run_lane_simulations and pinned lane-for-lane against the reference
// engine: lane k must reproduce the SimResult of run_reference_simulation
// under derive_stream_seed(seed, k) bit for bit — every counter and double
// compared by bit pattern, so a single FP add in the wrong order fails
// loudly. Unsupported configurations (mesh, > 64 ports) route through the
// same interface's per-lane fallback and are pinned identically, which
// keeps the contract uniform as coverage grows. Same idiom as
// tests/test_bitsliced_fuzz.cpp at the gate level.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "sim/lane_sim.hpp"
#include "sim/simulation.hpp"

namespace sfab {
namespace {

/// Exact-bit double comparison: bit-identical means identical, not close.
void expect_same_bits(double laned, double scalar, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(laned),
            std::bit_cast<std::uint64_t>(scalar))
      << what << ": laned " << laned << " vs scalar " << scalar;
}

void expect_result_eq(const SimResult& laned, const SimResult& scalar,
                      const std::string& context) {
  EXPECT_EQ(laned.arch, scalar.arch) << context;
  EXPECT_EQ(laned.ports, scalar.ports) << context;
  expect_same_bits(laned.offered_load, scalar.offered_load,
                   context + " offered_load");
  expect_same_bits(laned.egress_throughput, scalar.egress_throughput,
                   context + " egress_throughput");
  EXPECT_EQ(laned.delivered_words, scalar.delivered_words) << context;
  EXPECT_EQ(laned.delivered_packets, scalar.delivered_packets) << context;
  EXPECT_EQ(laned.input_queue_drops, scalar.input_queue_drops) << context;
  expect_same_bits(laned.mean_packet_latency_cycles,
                   scalar.mean_packet_latency_cycles,
                   context + " mean_packet_latency_cycles");
  expect_same_bits(laned.power_w, scalar.power_w, context + " power_w");
  expect_same_bits(laned.switch_power_w, scalar.switch_power_w,
                   context + " switch_power_w");
  expect_same_bits(laned.buffer_power_w, scalar.buffer_power_w,
                   context + " buffer_power_w");
  expect_same_bits(laned.wire_power_w, scalar.wire_power_w,
                   context + " wire_power_w");
  expect_same_bits(laned.energy_per_bit_j, scalar.energy_per_bit_j,
                   context + " energy_per_bit_j");
  EXPECT_EQ(laned.words_buffered, scalar.words_buffered) << context;
  EXPECT_EQ(laned.sram_buffered_words, scalar.sram_buffered_words) << context;
  EXPECT_EQ(laned.stall_cycles, scalar.stall_cycles) << context;
  EXPECT_EQ(laned.measured_cycles, scalar.measured_cycles) << context;
}

/// Runs `config` at `lanes` replicates through both engines and pins every
/// lane. The reference side re-derives the same seed list, so any
/// divergence is the engine's, never the harness's.
void pin_lanes(const SimConfig& config, unsigned lanes,
               const std::string& context) {
  std::vector<std::uint64_t> seeds(lanes);
  for (unsigned k = 0; k < lanes; ++k) {
    seeds[k] = derive_stream_seed(config.seed, k);
  }
  const std::vector<SimResult> laned = run_lane_simulations(config, seeds);
  ASSERT_EQ(laned.size(), lanes) << context;
  for (unsigned k = 0; k < lanes; ++k) {
    SimConfig scalar = config;
    scalar.seed = seeds[k];
    expect_result_eq(laned[k], run_reference_simulation(scalar),
                     context + " lane " + std::to_string(k));
  }
}

/// A random supported configuration in the given (arch, scheme) cell,
/// with randomized shape, pattern, payload, and scheduler depth — plus
/// the banyan node-FIFO knobs when the cell has node FIFOs. Cycle counts
/// stay small — divergence shows up within a few hundred cycles or not
/// at all.
SimConfig random_config(Architecture arch, RouterScheme scheme,
                        std::uint64_t seed) {
  Rng rng{seed};
  SimConfig c;
  c.arch = arch;
  c.scheme = scheme;
  c.ports = 2 + static_cast<unsigned>(rng.next_below(15));  // 2..16
  if (arch == Architecture::kBatcherBanyan) {
    c.ports = 4u << rng.next_below(3);  // 4..16, power of two
  } else if (arch == Architecture::kBanyan) {
    c.ports = 2u << rng.next_below(4);  // 2..16, power of two
    c.buffer_words_per_switch = 1 + static_cast<unsigned>(rng.next_below(6));
    c.buffer_skid_words = static_cast<unsigned>(rng.next_below(3));
    c.charge_buffer_read_and_write = rng.next_below(2) == 0;
    c.dram_buffers = rng.next_below(4) == 0;
  }
  c.packet_words = 1 + static_cast<unsigned>(rng.next_below(8));
  c.ingress_queue_packets = 1 + rng.next_below(8);
  c.islip_iterations = static_cast<unsigned>(rng.next_below(3));  // 0 = maximal
  c.warmup_cycles = rng.next_below(2) == 0 ? 0 : 128;
  c.measure_cycles = 256 + rng.next_below(512);
  c.seed = rng.next_u64();

  constexpr double kLoads[] = {0.05, 0.25, 0.5, 0.8, 0.95, 1.0};
  c.offered_load = kLoads[rng.next_below(std::size(kLoads))];

  constexpr PayloadKind kPayloads[] = {
      PayloadKind::kRandom, PayloadKind::kAlternating, PayloadKind::kZero};
  c.payload = kPayloads[rng.next_below(std::size(kPayloads))];

  switch (rng.next_below(4)) {
    case 0:
      c.pattern = TrafficPatternKind::kUniform;
      break;
    case 1:
      c.pattern = TrafficPatternKind::kHotspot;
      c.hotspot_port = static_cast<PortId>(rng.next_below(c.ports));
      c.hotspot_fraction = 0.1 + 0.2 * static_cast<double>(rng.next_below(4));
      break;
    case 2:
      c.pattern = TrafficPatternKind::kBursty;
      c.mean_burst_cycles = 1.0 + static_cast<double>(rng.next_below(64));
      break;
    default:
      c.pattern = TrafficPatternKind::kBitReversal;
      if (!is_pow2(c.ports)) {
        c.ports = 1u << (1 + rng.next_below(4));  // 2..16, power of two
      }
      break;
  }
  return c;
}

TEST(LaneSimFuzz, RandomConfigsMatchScalarLaneForLane) {
  // Every laned (arch, scheme) cell x ragged lane counts: lone lane,
  // partial block, block boundary straddles, and a full 64-lane word.
  // Three random shapes per cell; the case counter strides the lane-count
  // table so each cell sees different raggedness.
  constexpr Architecture kArchs[] = {
      Architecture::kCrossbar, Architecture::kFullyConnected,
      Architecture::kBatcherBanyan, Architecture::kBanyan};
  constexpr RouterScheme kSchemes[] = {RouterScheme::kVoq,
                                       RouterScheme::kFifo};
  constexpr unsigned kLaneCounts[] = {1, 2, 5, 7, 8, 9, 16, 64};
  std::uint64_t case_seed = 0;
  for (const Architecture arch : kArchs) {
    for (const RouterScheme scheme : kSchemes) {
      for (int shape = 0; shape < 3; ++shape) {
        ++case_seed;
        const SimConfig config =
            random_config(arch, scheme, 0xF02 + case_seed * 0x9E37);
        ASSERT_TRUE(lane_sim_supported(config))
            << "case " << case_seed << " must exercise the laned path, "
            << "not the fallback (reason: "
            << to_string(lane_sim_fallback_reason(config)) << ")";
        const unsigned lanes =
            kLaneCounts[(case_seed - 1) % std::size(kLaneCounts)];
        pin_lanes(config, lanes,
                  "case " + std::to_string(case_seed) + " (" +
                      std::string(to_string(arch)) + "/" +
                      std::string(to_string(scheme)) + " " +
                      std::to_string(config.ports) + "p load " +
                      std::to_string(config.offered_load) + ")");
      }
    }
  }
}

TEST(LaneSimFuzz, LoadSweepMatchesAtEveryPoint) {
  SimConfig c;
  c.arch = Architecture::kCrossbar;
  c.scheme = RouterScheme::kVoq;
  c.ports = 8;
  c.packet_words = 4;
  c.ingress_queue_packets = 4;
  c.warmup_cycles = 100;
  c.measure_cycles = 500;
  c.seed = 42;
  for (const double load : {0.0, 0.1, 0.4, 0.7, 0.9, 1.0}) {
    c.offered_load = load;
    pin_lanes(c, 6, "load " + std::to_string(load));
  }
}

TEST(LaneSimFuzz, MoreThanSixtyFourLanesChunk) {
  // 65 lanes straddle the engine's 64-lane pass boundary: the second
  // chunk must restart the plane state, not carry the first chunk's.
  SimConfig c;
  c.arch = Architecture::kCrossbar;
  c.scheme = RouterScheme::kVoq;
  c.ports = 4;
  c.packet_words = 2;
  c.ingress_queue_packets = 2;
  c.warmup_cycles = 50;
  c.measure_cycles = 300;
  c.offered_load = 0.6;
  c.seed = 7;
  pin_lanes(c, 65, "65 lanes");
  // The staged engines keep per-stage plane state the chunk restart must
  // also rebuild — pin the boundary once through the deepest fabric too.
  c.arch = Architecture::kBatcherBanyan;
  c.scheme = RouterScheme::kFifo;
  pin_lanes(c, 65, "65 lanes batcher-banyan fifo");
}

TEST(LaneSimFuzz, UnsupportedConfigsFallBackIdentically) {
  // Mesh and > 64-port configs take the per-lane scalar fallback behind
  // the same interface — trivially identical, pinned so the routing stays
  // honest as laned coverage grows.
  SimConfig c;
  c.ports = 8;
  c.packet_words = 4;
  c.warmup_cycles = 50;
  c.measure_cycles = 300;
  c.offered_load = 0.5;
  c.seed = 11;
  c.arch = Architecture::kMesh;
  c.scheme = RouterScheme::kFifo;
  c.ports = 9;  // k x k mesh needs a perfect square
  EXPECT_EQ(lane_sim_fallback_reason(c), LaneFallbackReason::kArch);
  pin_lanes(c, 3, "mesh fallback");
  c.arch = Architecture::kCrossbar;
  c.scheme = RouterScheme::kVoq;
  c.ports = 80;  // > 64 lanes of egress state per plane word
  EXPECT_EQ(lane_sim_fallback_reason(c), LaneFallbackReason::kPorts);
  pin_lanes(c, 2, "80-port fallback");
}

}  // namespace
}  // namespace sfab
