// Tests for the simulation harness (the Simulink-platform replacement).
#include <gtest/gtest.h>

#include "sim/report.hpp"
#include "sim/simulation.hpp"

#include <limits>
#include <sstream>

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
