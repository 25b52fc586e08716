// Tests for the simulation harness (the Simulink-platform replacement).
#include <gtest/gtest.h>

#include "sim/report.hpp"
#include "sim/simulation.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace sfab {
namespace {

SimConfig quick(Architecture arch, unsigned ports, double load) {
  SimConfig c;
  c.arch = arch;
  c.ports = ports;
  c.offered_load = load;
  c.warmup_cycles = 1'000;
  c.measure_cycles = 8'000;
  c.seed = 7;
  return c;
}

TEST(Simulation, ProducesSaneMeasurements) {
  const SimResult r = run_simulation(quick(Architecture::kCrossbar, 8, 0.3));
  EXPECT_EQ(r.arch, Architecture::kCrossbar);
  EXPECT_EQ(r.ports, 8u);
  EXPECT_GT(r.delivered_words, 0u);
  EXPECT_GT(r.power_w, 0.0);
  EXPECT_GT(r.energy_per_bit_j, 0.0);
  EXPECT_NEAR(r.egress_throughput, 0.3, 0.05);
  EXPECT_NEAR(r.power_w,
              r.switch_power_w + r.buffer_power_w + r.wire_power_w,
              1e-12);
}

TEST(Simulation, DeterministicForSameSeed) {
  const SimResult a = run_simulation(quick(Architecture::kBanyan, 8, 0.4));
  const SimResult b = run_simulation(quick(Architecture::kBanyan, 8, 0.4));
  EXPECT_EQ(a.delivered_words, b.delivered_words);
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
}

TEST(Simulation, SeedChangesTheRun) {
  SimConfig c1 = quick(Architecture::kBanyan, 8, 0.4);
  SimConfig c2 = c1;
  c2.seed = 8;
  EXPECT_NE(run_simulation(c1).delivered_words,
            run_simulation(c2).delivered_words);
}

TEST(Simulation, BufferlessFabricsReportZeroBufferPower) {
  for (const Architecture arch :
       {Architecture::kCrossbar, Architecture::kFullyConnected,
        Architecture::kBatcherBanyan}) {
    const SimResult r = run_simulation(quick(arch, 8, 0.4));
    EXPECT_DOUBLE_EQ(r.buffer_power_w, 0.0) << to_string(arch);
    EXPECT_EQ(r.words_buffered, 0u);
  }
}

TEST(Simulation, BanyanBuffersUnderLoad) {
  const SimResult r = run_simulation(quick(Architecture::kBanyan, 16, 0.5));
  EXPECT_GT(r.words_buffered, 0u);
  EXPECT_GT(r.buffer_power_w, 0.0);
}

TEST(Simulation, PowerRisesWithLoad) {
  for (const Architecture arch : all_architectures()) {
    const SimResult lo = run_simulation(quick(arch, 16, 0.1));
    const SimResult hi = run_simulation(quick(arch, 16, 0.5));
    EXPECT_GT(hi.power_w, lo.power_w) << to_string(arch);
  }
}

// Load sweeps moved to the experiment engine: tests/test_exp_runner.cpp.

TEST(Simulation, VoqSchemeBeatsFifoSaturation) {
  // The VOQ router plugs into the same harness via config.scheme and lifts
  // the 58.6% HOL ceiling at full offered load.
  SimConfig fifo = quick(Architecture::kCrossbar, 8, 1.0);
  fifo.warmup_cycles = 2'000;
  SimConfig voq = fifo;
  voq.scheme = RouterScheme::kVoq;
  const SimResult a = run_simulation(fifo);
  const SimResult b = run_simulation(voq);
  EXPECT_LT(a.egress_throughput, 0.75);
  EXPECT_GT(b.egress_throughput, a.egress_throughput);
  EXPECT_GT(b.egress_throughput, 0.85);
}

TEST(Simulation, SchemeAndPatternNamesRoundTrip) {
  for (const RouterScheme scheme : {RouterScheme::kFifo, RouterScheme::kVoq}) {
    EXPECT_EQ(parse_router_scheme(to_string(scheme)), scheme);
  }
  for (const TrafficPatternKind pattern :
       {TrafficPatternKind::kUniform, TrafficPatternKind::kBitReversal,
        TrafficPatternKind::kHotspot, TrafficPatternKind::kBursty}) {
    EXPECT_EQ(parse_traffic_pattern(to_string(pattern)), pattern);
  }
  EXPECT_THROW((void)parse_router_scheme("token-ring"), std::invalid_argument);
  EXPECT_THROW((void)parse_traffic_pattern("tornado"), std::invalid_argument);
}

TEST(Simulation, ZeroPayloadStillBurnsSwitchEnergy) {
  // All-zero payloads toggle no wires, but switch logic still processes
  // every word — the LUT term is per transported bit, not per flip.
  SimConfig c = quick(Architecture::kCrossbar, 8, 0.3);
  c.payload = PayloadKind::kZero;
  const SimResult r = run_simulation(c);
  EXPECT_GT(r.switch_power_w, 0.0);
  EXPECT_LT(r.wire_power_w, r.switch_power_w * 0.1);
}

TEST(Simulation, AlternatingPayloadMaximizesWirePower) {
  SimConfig random_payload = quick(Architecture::kCrossbar, 8, 0.3);
  SimConfig alternating = random_payload;
  alternating.payload = PayloadKind::kAlternating;
  // Random flips ~half the bits; alternating flips all of them.
  const double wire_random = run_simulation(random_payload).wire_power_w;
  const double wire_alternating = run_simulation(alternating).wire_power_w;
  EXPECT_NEAR(wire_alternating / wire_random, 2.0, 0.2);
}

TEST(Simulation, TrafficPatternsRun) {
  for (const auto pattern :
       {TrafficPatternKind::kUniform, TrafficPatternKind::kBitReversal,
        TrafficPatternKind::kHotspot, TrafficPatternKind::kBursty}) {
    SimConfig c = quick(Architecture::kBanyan, 8, 0.3);
    c.pattern = pattern;
    const SimResult r = run_simulation(c);
    EXPECT_GT(r.delivered_words, 0u) << to_string(pattern);
  }
}

TEST(Simulation, HotspotThrottlesThroughput) {
  SimConfig uniform = quick(Architecture::kCrossbar, 16, 0.5);
  SimConfig hotspot = uniform;
  hotspot.pattern = TrafficPatternKind::kHotspot;
  hotspot.hotspot_fraction = 0.5;
  // Half of all traffic squeezing through one egress caps throughput.
  EXPECT_LT(run_simulation(hotspot).egress_throughput,
            run_simulation(uniform).egress_throughput);
}

TEST(Simulation, TechnologyScalingShrinksPower) {
  SimConfig ref = quick(Architecture::kFullyConnected, 8, 0.4);
  SimConfig scaled = ref;
  scaled.tech = TechnologyParams::preset("0.13um");
  scaled.switches =
      SwitchEnergyTables::paper_defaults().scaled_to(scaled.tech);
  EXPECT_LT(run_simulation(scaled).power_w, run_simulation(ref).power_w);
}

TEST(Simulation, MeshArchitectureRunsThroughTheHarness) {
  const SimResult r = run_simulation(quick(Architecture::kMesh, 16, 0.3));
  EXPECT_NEAR(r.egress_throughput, 0.3, 0.05);
  EXPECT_GT(r.switch_power_w, 0.0);
  EXPECT_GT(r.wire_power_w, 0.0);
}

TEST(Simulation, DramBuffersAddConstantRefreshPower) {
  SimConfig sram = quick(Architecture::kBanyan, 16, 0.1);
  SimConfig dram = sram;
  dram.dram_buffers = true;
  const SimResult a = run_simulation(sram);
  const SimResult b = run_simulation(dram);
  EXPECT_GT(b.buffer_power_w, a.buffer_power_w);
  // Refresh power is load-independent: the adder persists at zero load.
  SimConfig idle = dram;
  idle.offered_load = 0.0;
  const SimResult c = run_simulation(idle);
  EXPECT_GT(c.buffer_power_w, 0.0);
  EXPECT_DOUBLE_EQ(c.switch_power_w, 0.0);
}

TEST(Simulation, SkidBypassReducesBufferPowerWithoutChangingDelivery) {
  SimConfig with_skid = quick(Architecture::kBanyan, 16, 0.4);
  SimConfig strict = with_skid;
  strict.buffer_skid_words = 0;
  const SimResult a = run_simulation(with_skid);
  const SimResult b = run_simulation(strict);
  EXPECT_LT(a.buffer_power_w, b.buffer_power_w);
  EXPECT_EQ(a.delivered_words, b.delivered_words);  // energy-only knob
  EXPECT_LE(a.sram_buffered_words, a.words_buffered);
  EXPECT_EQ(b.sram_buffered_words, b.words_buffered);
}

TEST(Simulation, PermutationTrafficHasNoDestinationContention) {
  // Fixed distinct (source, dest) pairs never fight at the arbiter, so a
  // contention-free fabric delivers the full offered load even at rates
  // where uniform traffic already feels HOL blocking.
  SimConfig c = quick(Architecture::kCrossbar, 16, 0.55);
  c.pattern = TrafficPatternKind::kBitReversal;
  const SimResult r = run_simulation(c);
  EXPECT_NEAR(r.egress_throughput, 0.55, 0.03);
  EXPECT_EQ(r.input_queue_drops, 0u);
}

TEST(Simulation, InvalidConfigRejected) {
  SimConfig c = quick(Architecture::kCrossbar, 8, 0.3);
  c.measure_cycles = 0;
  EXPECT_THROW((void)run_simulation(c), std::invalid_argument);
}

TEST(Simulation, NonFiniteTrafficParametersRejected) {
  // A NaN rate passes `rate < 0 || rate > 1`, and std::min(1.0, x) turns
  // NaN and +inf into an on-rate of 1: each used to run silently. Both
  // entry points must throw instead.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    TrafficPatternKind pattern;
    double load;
    double mean_burst_cycles;
  };
  const Case cases[] = {
      {"uniform load nan", TrafficPatternKind::kUniform, kNaN, 8.0},
      {"bursty load nan", TrafficPatternKind::kBursty, kNaN, 8.0},
      {"bursty load inf", TrafficPatternKind::kBursty, kInf, 8.0},
      {"bursty burst nan", TrafficPatternKind::kBursty, 0.3, kNaN},
      {"bursty burst inf", TrafficPatternKind::kBursty, 0.3, kInf},
  };
  for (const Case& k : cases) {
    SimConfig c = quick(Architecture::kCrossbar, 8, k.load);
    c.pattern = k.pattern;
    c.mean_burst_cycles = k.mean_burst_cycles;
    EXPECT_THROW((void)run_simulation(c), std::invalid_argument) << k.name;
    EXPECT_THROW((void)run_reference_simulation(c), std::invalid_argument)
        << k.name;
  }
}

/// Every SimResult field, doubles by bit pattern: equal means bit-identical.
auto result_bits(const SimResult& r) {
  const auto b = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return std::tuple(static_cast<int>(r.arch), r.ports, b(r.offered_load),
                    b(r.egress_throughput), r.delivered_words,
                    r.delivered_packets, r.input_queue_drops,
                    b(r.mean_packet_latency_cycles), b(r.power_w),
                    b(r.switch_power_w), b(r.buffer_power_w),
                    b(r.wire_power_w), b(r.energy_per_bit_j),
                    r.words_buffered, r.sram_buffered_words, r.stall_cycles,
                    r.measured_cycles);
}

TEST(Simulation, ValidateAgreesWithTheReference) {
  // validate() is the one admission rule. Over an edge grid, for every
  // architecture and both fronts: wherever the reference throws, validate
  // throws, and wherever validate accepts, run_simulation reproduces the
  // reference bit for bit. (The engine's own envelope, which the
  // reference does not share, is pinned in test_lane_sim_fuzz.)
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Edge {
    std::string name;
    std::function<void(SimConfig&)> apply;
  };
  std::vector<Edge> edges = {{"base", [](SimConfig&) {}}};
  const auto add = [&](std::string name, std::function<void(SimConfig&)> f) {
    edges.push_back({std::move(name), std::move(f)});
  };
  for (const TrafficPatternKind pattern :
       {TrafficPatternKind::kUniform, TrafficPatternKind::kBursty}) {
    const std::string on = " " + std::string(to_string(pattern));
    for (const unsigned words : {1u, 3u}) {
      // Exactly one packet per port per cycle, and just above that.
      for (const double load : {-0.1, 0.0, kNaN, kInf, double(words),
                                std::nextafter(double(words), kInf)}) {
        add("load " + std::to_string(load) + " words " +
                std::to_string(words) + on,
            [=](SimConfig& c) {
              c.pattern = pattern;
              c.packet_words = words;
              c.offered_load = load;
            });
      }
    }
    for (const unsigned v : {0u, 1u}) {
      const std::string is = " " + std::to_string(v) + on;
      add("packet_words" + is, [=](SimConfig& c) {
        c.pattern = pattern;
        c.packet_words = v;
      });
      add("queue" + is, [=](SimConfig& c) {
        c.pattern = pattern;
        c.ingress_queue_packets = v;
      });
      add("measure" + is, [=](SimConfig& c) {
        c.pattern = pattern;
        c.measure_cycles = v;
      });
      add("buffer_words" + is, [=](SimConfig& c) {
        c.pattern = pattern;
        c.buffer_words_per_switch = v;
      });
    }
  }
  for (const unsigned below : {1u, 0u}) {
    add("hotspot port ports - " + std::to_string(below), [=](SimConfig& c) {
      c.pattern = TrafficPatternKind::kHotspot;
      c.hotspot_port = c.ports - below;
    });
  }
  for (const double fraction : {-0.1, kNaN, 1.1}) {
    add("hotspot fraction " + std::to_string(fraction), [=](SimConfig& c) {
      c.pattern = TrafficPatternKind::kHotspot;
      c.hotspot_fraction = fraction;
    });
  }
  for (const double burst : {0.5, 1.0, kNaN, kInf}) {
    add("burst " + std::to_string(burst), [=](SimConfig& c) {
      c.pattern = TrafficPatternKind::kBursty;
      c.mean_burst_cycles = burst;
    });
  }
  add("dram retention 0", [](SimConfig& c) {
    c.dram_buffers = true;
    c.dram_retention_s = 0.0;
  });
  add("bit-reversal", [](SimConfig& c) {
    c.pattern = TrafficPatternKind::kBitReversal;
  });
  add("unknown arch", [](SimConfig& c) { c.arch = Architecture{9}; });
  add("unknown scheme", [](SimConfig& c) { c.scheme = RouterScheme{9}; });
  add("unknown pattern",
      [](SimConfig& c) { c.pattern = TrafficPatternKind{9}; });

  SimConfig base;
  base.offered_load = 0.5;
  base.packet_words = 2;
  base.ingress_queue_packets = 2;
  base.buffer_words_per_switch = 2;
  base.mean_burst_cycles = 4.0;
  base.warmup_cycles = 2;
  base.measure_cycles = 6;
  base.seed = 0x7A11;
  std::size_t accepted = 0;
  std::size_t rejected_by_both = 0;
  for (const Architecture arch :
       {Architecture::kCrossbar, Architecture::kFullyConnected,
        Architecture::kBatcherBanyan, Architecture::kBanyan,
        Architecture::kMesh}) {
    for (const RouterScheme scheme :
         {RouterScheme::kFifo, RouterScheme::kVoq}) {
      for (const unsigned ports : {0u, 1u, 2u, 3u, 4u, 8u, 9u, 16u, 64u}) {
        for (const Edge& edge : edges) {
          SimConfig c = base;
          c.arch = arch;
          c.scheme = scheme;
          c.ports = ports;
          edge.apply(c);
          const std::string context = std::string(to_string(arch)) + "/" +
                                      std::string(to_string(scheme)) + " " +
                                      std::to_string(ports) + "p " +
                                      edge.name;
          std::optional<SimResult> reference;
          try {
            reference = run_reference_simulation(c);
          } catch (const std::invalid_argument&) {
          }
          bool valid = true;
          try {
            validate(c);
          } catch (const std::invalid_argument&) {
            valid = false;
          }
          if (!reference) {
            EXPECT_FALSE(valid) << context << ": the reference throws";
            if (!valid) ++rejected_by_both;
          } else if (valid) {
            EXPECT_EQ(result_bits(run_simulation(c)), result_bits(*reference))
                << context;
            ++accepted;
          }
        }
      }
    }
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected_by_both, 1000u);
}

// --- report formatting -------------------------------------------------------------

TEST(Report, TextTableAlignsColumns) {
  TextTable t;
  t.set_header({"arch", "power"});
  t.add_row({"crossbar", "1.0 mW"});
  t.add_row({"fc", "22.5 mW"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("crossbar"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Report, TextTableRejectsRaggedRows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW((void)t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, Formatters) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_power(0.01234), "12.340 mW");
  EXPECT_EQ(format_power(2.5), "2.5000 W");
  EXPECT_EQ(format_energy(220e-15), "220.0 fJ");
  EXPECT_EQ(format_energy(154e-12), "154.0 pJ");
  EXPECT_EQ(format_percent(0.425), "42.5%");
}

}  // namespace
}  // namespace sfab
