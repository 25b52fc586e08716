// Differential fuzz harness for the packet engine.
//
// Random configurations across every supported (arch, scheme) cell —
// crossbar, fully-connected, Batcher-Banyan, banyan and mesh, each under
// VOQ/iSLIP and FIFO/HOL ingress, with randomized shape, traffic pattern,
// payload kind, scheduler depth, and (for banyan and mesh) node-FIFO
// capacity / skid / DRAM knobs — run through run_simulation at several
// derived seeds
// and are pinned run for run against the reference engine: the run under
// derive_stream_seed(seed, k) must reproduce run_reference_simulation's
// SimResult for that seed bit for bit — every counter and double compared
// by bit pattern, so a single FP add in the wrong order fails loudly.
// Configurations outside the engine's envelope (> 64 ports, the 2^30-cycle
// horizon, the 2^20 caps, an oversized state footprint) never run on
// another engine: validate() rejects them, naming the field. Same idiom as
// tests/test_bitsliced_fuzz.cpp at the gate level.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace sfab {
namespace {

/// Exact-bit double comparison: bit-identical means identical, not close.
void expect_same_bits(double engine, double scalar, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(engine),
            std::bit_cast<std::uint64_t>(scalar))
      << what << ": engine " << engine << " vs scalar " << scalar;
}

void expect_result_eq(const SimResult& engine, const SimResult& scalar,
                      const std::string& context) {
  EXPECT_EQ(engine.arch, scalar.arch) << context;
  EXPECT_EQ(engine.ports, scalar.ports) << context;
  expect_same_bits(engine.offered_load, scalar.offered_load,
                   context + " offered_load");
  expect_same_bits(engine.egress_throughput, scalar.egress_throughput,
                   context + " egress_throughput");
  EXPECT_EQ(engine.delivered_words, scalar.delivered_words) << context;
  EXPECT_EQ(engine.delivered_packets, scalar.delivered_packets) << context;
  EXPECT_EQ(engine.input_queue_drops, scalar.input_queue_drops) << context;
  expect_same_bits(engine.mean_packet_latency_cycles,
                   scalar.mean_packet_latency_cycles,
                   context + " mean_packet_latency_cycles");
  expect_same_bits(engine.power_w, scalar.power_w, context + " power_w");
  expect_same_bits(engine.switch_power_w, scalar.switch_power_w,
                   context + " switch_power_w");
  expect_same_bits(engine.buffer_power_w, scalar.buffer_power_w,
                   context + " buffer_power_w");
  expect_same_bits(engine.wire_power_w, scalar.wire_power_w,
                   context + " wire_power_w");
  expect_same_bits(engine.energy_per_bit_j, scalar.energy_per_bit_j,
                   context + " energy_per_bit_j");
  EXPECT_EQ(engine.words_buffered, scalar.words_buffered) << context;
  EXPECT_EQ(engine.sram_buffered_words, scalar.sram_buffered_words)
      << context;
  EXPECT_EQ(engine.stall_cycles, scalar.stall_cycles) << context;
  EXPECT_EQ(engine.measured_cycles, scalar.measured_cycles) << context;
}

/// Runs `config` under `seeds` derived seeds through both engines and pins
/// every run. Each run builds fresh engine state, so any divergence is
/// the engine's, never carried over from an earlier run.
void pin_seeds(SimConfig config, unsigned seeds, const std::string& context) {
  const std::uint64_t base_seed = config.seed;
  for (unsigned k = 0; k < seeds; ++k) {
    config.seed = derive_stream_seed(base_seed, k);
    expect_result_eq(run_simulation(config),
                     run_reference_simulation(config),
                     context + " seed " + std::to_string(k));
  }
}

/// A random supported configuration in the given (arch, scheme) cell,
/// with randomized shape, pattern, payload, and scheduler depth — plus
/// the node-FIFO knobs when the cell has node FIFOs (banyan, mesh; mesh
/// ignores dram_buffers, and the draw checks that it does). Crossbar,
/// fully-connected, Batcher-Banyan and banyan draw up to 64 ports, so the
/// full-mask (n == 64) paths of the fabrics and the fronts are fuzzed too.
/// Cycle counts stay small — divergence shows up within a few hundred
/// cycles or not at all.
SimConfig random_config(Architecture arch, RouterScheme scheme,
                        std::uint64_t seed) {
  Rng rng{seed};
  SimConfig c;
  c.arch = arch;
  c.scheme = scheme;
  c.ports = 2 + static_cast<unsigned>(rng.next_below(63));  // 2..64
  if (arch == Architecture::kBatcherBanyan) {
    c.ports = 4u << rng.next_below(5);  // 4..64, power of two
  } else if (arch == Architecture::kBanyan || arch == Architecture::kMesh) {
    constexpr unsigned kSquares[] = {4, 9, 16, 25, 36, 49, 64};  // k x k
    c.ports = arch == Architecture::kBanyan
                  ? 2u << rng.next_below(6)  // 2..64, power of two
                  : kSquares[rng.next_below(std::size(kSquares))];
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
        c.ports = arch == Architecture::kMesh
                      ? 4u << (2 * rng.next_below(3))  // 4, 16, 64
                      : 1u << (1 + rng.next_below(6));  // 2..64, pow2
      }
      break;
  }
  return c;
}

TEST(LaneSimFuzz, RandomConfigsMatchScalarRunForRun) {
  // Every supported (arch, scheme) cell, three random shapes per cell,
  // each pinned at several derived seeds.
  constexpr Architecture kArchs[] = {
      Architecture::kCrossbar, Architecture::kFullyConnected,
      Architecture::kBatcherBanyan, Architecture::kBanyan,
      Architecture::kMesh};
  constexpr RouterScheme kSchemes[] = {RouterScheme::kVoq,
                                       RouterScheme::kFifo};
  std::uint64_t case_seed = 0;
  for (const Architecture arch : kArchs) {
    for (const RouterScheme scheme : kSchemes) {
      for (int shape = 0; shape < 3; ++shape) {
        ++case_seed;
        const SimConfig config =
            random_config(arch, scheme, 0xF02 + case_seed * 0x9E37);
        pin_seeds(config, 4,
                  "case " + std::to_string(case_seed) + " (" +
                      std::string(to_string(arch)) + "/" +
                      std::string(to_string(scheme)) + " " +
                      std::to_string(config.ports) + "p load " +
                      std::to_string(config.offered_load) + ")");
      }
    }
  }
}

TEST(LaneSimFuzz, FullMaskPortsMatchRunForRun) {
  // At 64 ports every port mask is a full word: the single-hop stage's
  // occupancy walk, both fronts' masks, Batcher-Banyan's widest sorter and
  // banyan's row masks. The random draws above reach 64 only by chance, so
  // pin it here.
  constexpr Architecture kArchs[] = {
      Architecture::kCrossbar, Architecture::kFullyConnected,
      Architecture::kBatcherBanyan, Architecture::kBanyan};
  std::uint64_t case_seed = 0;
  for (const Architecture arch : kArchs) {
    for (const RouterScheme scheme :
         {RouterScheme::kVoq, RouterScheme::kFifo}) {
      ++case_seed;
      SimConfig config = random_config(arch, scheme, 0x640 + case_seed);
      config.ports = 64;  // drawn hotspot ports stay below 64
      pin_seeds(config, 2,
                "64-port " + std::string(to_string(arch)) + "/" +
                    std::string(to_string(scheme)));
    }
  }
}

TEST(LaneSimFuzz, FullBatcherCohortsMatchAtEverySeed) {
  // Batcher-Banyan's lockstep tick at its widest: 64 ports at load 1.0, so
  // nearly every ingress streams every cycle and cohorts fill all 64 rows
  // (bit-reversal makes every cycle's cohort a full permutation). The
  // random draws above reach a full cohort only by chance.
  SimConfig c;
  c.arch = Architecture::kBatcherBanyan;
  c.ports = 64;
  c.offered_load = 1.0;
  c.ingress_queue_packets = 4;
  c.warmup_cycles = 50;
  c.measure_cycles = 300;
  c.seed = 0xFC0407;
  for (const TrafficPatternKind pattern :
       {TrafficPatternKind::kUniform, TrafficPatternKind::kBitReversal}) {
    for (const unsigned words : {1u, 16u}) {
      for (const RouterScheme scheme :
           {RouterScheme::kFifo, RouterScheme::kVoq}) {
        c.pattern = pattern;
        c.packet_words = words;
        c.scheme = scheme;
        const std::string context =
            "batcher-banyan@64 full " + std::string(to_string(pattern)) +
            " " + std::to_string(words) + "-word " +
            std::string(to_string(scheme));
        if (pattern == TrafficPatternKind::kBitReversal && words == 1) {
          // Every ingress sends a word every cycle: all cohorts are full.
          EXPECT_EQ(run_simulation(c).egress_throughput, 1.0) << context;
        }
        pin_seeds(c, 3, context);
      }
    }
  }
}

TEST(LaneSimFuzz, DeepBanyanBacklogMatchesAtEverySeed) {
  // Banyan at its widest under a backlog: 64 ports at load 1.0, so most
  // switches hold words every tick. One-word FIFOs stall, 128-word FIFOs
  // (the production depth) keep long rings, a zero skid sends every
  // buffered word to the SRAM and a skid above the buffer none. DRAM
  // refresh adds to every tick, and reads are not charged.
  SimConfig c;
  c.arch = Architecture::kBanyan;
  c.ports = 64;
  c.offered_load = 1.0;
  c.packet_words = 4;
  c.hotspot_port = 5;
  c.hotspot_fraction = 0.5;
  c.dram_buffers = true;
  c.charge_buffer_read_and_write = false;
  c.warmup_cycles = 100;
  c.measure_cycles = 300;
  c.seed = 0xBA64;
  for (const TrafficPatternKind pattern :
       {TrafficPatternKind::kUniform, TrafficPatternKind::kHotspot}) {
    for (const unsigned words : {1u, 3u, 128u}) {
      for (const unsigned skid : {0u, words + 1}) {
        for (const RouterScheme scheme :
             {RouterScheme::kFifo, RouterScheme::kVoq}) {
          c.pattern = pattern;
          c.buffer_words_per_switch = words;
          c.buffer_skid_words = skid;
          c.scheme = scheme;
          const std::string context =
              "banyan@64 " + std::string(to_string(pattern)) + " " +
              std::to_string(words) + "-word skid " + std::to_string(skid) +
              " " + std::string(to_string(scheme));
          const SimResult r = run_simulation(c);
          if (words == 1) {
            EXPECT_GT(r.stall_cycles, 0u) << context;
          }
          if (skid == 0) {
            EXPECT_GT(r.sram_buffered_words, 0u) << context;
          }
          pin_seeds(c, 3, context);
        }
      }
    }
  }
}

TEST(LaneSimFuzz, DeepMeshChainsMatchAtEverySeed) {
  // A saturated 8 x 8 mesh with one-word node FIFOs and no skid: most
  // words stall or wait on a freed register, so a tick runs long chains of
  // targeted re-sweeps and every buffered word pays SRAM energy.
  SimConfig c;
  c.arch = Architecture::kMesh;
  c.ports = 64;
  c.offered_load = 1.0;
  c.packet_words = 4;
  c.buffer_words_per_switch = 1;
  c.buffer_skid_words = 0;
  c.warmup_cycles = 100;
  c.measure_cycles = 400;
  c.seed = 0xD33C;
  for (const RouterScheme scheme : {RouterScheme::kFifo, RouterScheme::kVoq}) {
    c.scheme = scheme;
    pin_seeds(c, 4, "mesh@64 chain " + std::string(to_string(scheme)));
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
    pin_seeds(c, 6, "load " + std::to_string(load));
  }
}

/// validate() rejects `c`, naming `field` first, and so does
/// run_simulation. A config validate() accepts is not run: it may need
/// gigabytes or 2^30 cycles.
void expect_rejected(const SimConfig& c, const std::string& field,
                     const std::string& context) {
  try {
    validate(c);
    ADD_FAILURE() << context << ": accepted";
    return;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(field + " ", 0), 0u)
        << context << ": " << e.what();
  }
  EXPECT_THROW((void)run_simulation(c), std::invalid_argument) << context;
}

TEST(LaneSimFuzz, OutsideTheEnvelopeIsRejectedNamingTheField) {
  // The engine keeps every port set in one 64-bit mask word and stamps
  // words with 32-bit injection cycles, and one run's state is capped at
  // 512 MiB. Configs outside that envelope are rejected before any run,
  // naming the field; none runs on another engine.
  SimConfig c;
  c.scheme = RouterScheme::kVoq;
  c.packet_words = 4;
  c.warmup_cycles = 50;
  c.measure_cycles = 300;
  c.offered_load = 0.5;
  for (const unsigned ports : {65u, 80u, 128u}) {
    c.ports = ports;
    expect_rejected(c, "ports", std::to_string(ports) + "-port crossbar");
  }
  c.arch = Architecture::kMesh;
  c.ports = 81;  // a 9 x 9 mesh: more than 64 routers
  expect_rejected(c, "ports", "9 x 9 mesh");
  c.ports = 64;

  // The cycle horizon binds every fabric, the single-hop ones too.
  for (const Architecture arch :
       {Architecture::kCrossbar, Architecture::kFullyConnected,
        Architecture::kBatcherBanyan, Architecture::kBanyan,
        Architecture::kMesh}) {
    SimConfig h = c;
    h.arch = arch;
    h.warmup_cycles = 1000;
    h.measure_cycles = (Cycle{1} << 30) - h.warmup_cycles - 1;
    EXPECT_NO_THROW(validate(h)) << to_string(arch);  // the last cycle fits
    ++h.measure_cycles;
    expect_rejected(h, "measure_cycles",
                    "horizon " + std::string(to_string(arch)));
  }
  for (const Cycle warmup : {Cycle{1} << 30, Cycle{1} << 62}) {
    SimConfig h = c;
    h.warmup_cycles = warmup;
    h.measure_cycles = 1;
    expect_rejected(h, "warmup_cycles", "warmup past the horizon");
  }

  // The 2^20 caps on packet, queue and node-FIFO sizes, at the fewest
  // ports, where the footprint cap alone would admit them.
  constexpr unsigned kOverCap = (1u << 20) + 1;
  SimConfig w = c;
  w.arch = Architecture::kCrossbar;
  w.ports = 2;
  w.ingress_queue_packets = 1;
  w.packet_words = kOverCap;
  expect_rejected(w, "packet_words", "2^20 + 1 packet words");
  w.packet_words = 1;
  w.offered_load = 0.5;
  w.ingress_queue_packets = kOverCap;
  expect_rejected(w, "ingress_queue_packets", "2^20 + 1 queue packets");
  for (const Architecture arch : {Architecture::kBanyan, Architecture::kMesh}) {
    w = c;
    w.arch = arch;
    w.ports = arch == Architecture::kMesh ? 4 : 2;
    w.buffer_words_per_switch = kOverCap;
    expect_rejected(w, "buffer_words_per_switch",
                    "2^20 + 1 FIFO words " + std::string(to_string(arch)));
  }

  // The footprint cap, inside every 2^20 cap: 64 ports of 2^20-word
  // packets, and 2^17-word node FIFOs (2^16 fit).
  w = c;
  w.arch = Architecture::kCrossbar;
  w.packet_words = 1u << 20;
  expect_rejected(w, "packet_words", "oversized ingress state");
  for (const Architecture arch : {Architecture::kBanyan, Architecture::kMesh}) {
    w = c;
    w.arch = arch;
    w.buffer_words_per_switch = 1u << 16;
    EXPECT_NO_THROW(validate(w)) << to_string(arch);
    w.buffer_words_per_switch = 1u << 17;
    expect_rejected(w, "buffer_words_per_switch",
                    "oversized FIFOs " + std::string(to_string(arch)));
  }
}

}  // namespace
}  // namespace sfab
