// Observation must be free of side effects: a run with cycle probes and
// span capture enabled must produce a SimResult bit-identical to
// the unobserved run — and both must still match the committed
// test_bit_identity goldens. Only the reference engine takes an observer
// (run_reference_simulation), so each observed result is checked against
// the unobserved reference run and the unobserved packet-engine run.
// Every comparison is exact (EXPECT_EQ on doubles, deliberately): sampling
// reads counters the simulation maintains anyway, so a single differing
// bit means an instrument touched an RNG stream or reordered an FP
// accumulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "obs/probe.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/simulation.hpp"

namespace sfab {
namespace {

SimConfig config_named(std::string_view name) {
  SimConfig base;
  base.arch = Architecture::kCrossbar;
  base.ports = 16;
  base.offered_load = 0.5;
  base.warmup_cycles = 1'000;
  base.measure_cycles = 8'000;
  base.seed = 42;

  if (name == "crossbar_fifo_uniform") return base;
  if (name == "banyan_fifo_overload") {
    base.arch = Architecture::kBanyan;
    base.ports = 8;
    base.offered_load = 0.9;
    base.ingress_queue_packets = 8;
    return base;
  }
  if (name == "crossbar_voq_hot") {
    base.scheme = RouterScheme::kVoq;
    base.offered_load = 0.95;
    base.ports = 8;
    return base;
  }
  ADD_FAILURE() << "unknown config " << name;
  return base;
}

void expect_identical(const SimResult& observed, const SimResult& plain,
                      std::string_view label) {
  EXPECT_EQ(observed.arch, plain.arch) << label;
  EXPECT_EQ(observed.ports, plain.ports) << label;
  EXPECT_EQ(observed.offered_load, plain.offered_load) << label;
  EXPECT_EQ(observed.egress_throughput, plain.egress_throughput) << label;
  EXPECT_EQ(observed.delivered_words, plain.delivered_words) << label;
  EXPECT_EQ(observed.delivered_packets, plain.delivered_packets) << label;
  EXPECT_EQ(observed.input_queue_drops, plain.input_queue_drops) << label;
  EXPECT_EQ(observed.mean_packet_latency_cycles,
            plain.mean_packet_latency_cycles)
      << label;
  EXPECT_EQ(observed.power_w, plain.power_w) << label;
  EXPECT_EQ(observed.switch_power_w, plain.switch_power_w) << label;
  EXPECT_EQ(observed.buffer_power_w, plain.buffer_power_w) << label;
  EXPECT_EQ(observed.wire_power_w, plain.wire_power_w) << label;
  EXPECT_EQ(observed.energy_per_bit_j, plain.energy_per_bit_j) << label;
  EXPECT_EQ(observed.words_buffered, plain.words_buffered) << label;
  EXPECT_EQ(observed.sram_buffered_words, plain.sram_buffered_words) << label;
  EXPECT_EQ(observed.stall_cycles, plain.stall_cycles) << label;
  EXPECT_EQ(observed.measured_cycles, plain.measured_cycles) << label;
}

TEST(ObsIdentity, ProbedRunsMatchPlainRunsAtEveryStride) {
  for (const std::string_view name :
       {std::string_view{"crossbar_fifo_uniform"},
        std::string_view{"crossbar_voq_hot"},
        std::string_view{"banyan_fifo_overload"}}) {
    const SimConfig config = config_named(name);
    const SimResult plain = run_reference_simulation(config);
    expect_identical(run_simulation(config), plain,
                     std::string(name) + " packet engine");
    for (const std::uint64_t stride : {1ull, 7ull, 64ull}) {
      obs::ProbeRecorder recorder(stride);
      const SimResult observed = run_reference_simulation(config, &recorder);
      expect_identical(observed, plain,
                       std::string(name) + " stride " +
                           std::to_string(stride));
      EXPECT_GT(recorder.samples(), 0u);
      EXPECT_EQ(recorder.ports(), config.ports);
    }
  }
}

void expect_golden(const SimResult& observed) {
  EXPECT_EQ(observed.delivered_words, 62573ull);
  EXPECT_EQ(observed.delivered_packets, 3913ull);
  EXPECT_EQ(observed.input_queue_drops, 0ull);
  EXPECT_EQ(observed.egress_throughput, 0x1.f495810624dd3p-2);
  EXPECT_EQ(observed.power_w, 0x1.35e965a87d958p-2);
  EXPECT_EQ(observed.mean_packet_latency_cycles, 0x1.ep+3);
}

TEST(ObsIdentity, ProfiledAndProbedRunMatchesGoldens) {
  // The same goldens test_bit_identity pins, re-asserted with the full
  // observability stack on: span capture, stride-1 probes on the
  // reference engine, and the packet engine beside it.
  const SimConfig config = config_named("crossbar_fifo_uniform");
  obs::Counter& engine_runs =
      obs::Registry::global().counter("sim.lane.laned_lanes");
  const std::uint64_t engine_before = engine_runs.value();
  obs::Profiler::global().set_spans_enabled(true);
  obs::ProbeRecorder recorder(1);
  const SimResult observed = run_reference_simulation(config, &recorder);
  const SimResult engine = run_simulation(config);
  obs::Profiler::global().set_spans_enabled(false);

  expect_golden(observed);
  expect_golden(engine);
  EXPECT_EQ(engine_runs.value(), engine_before + 1);
  // Stride 1 over warmup + measure windows samples every cycle once.
  EXPECT_EQ(recorder.samples(),
            config.warmup_cycles + config.measure_cycles);
}

TEST(ObsIdentity, ProfiledUnobservedRunIsBitIdentical) {
  // Span capture on, no observer: timing the sweep phases must not
  // change a result on either engine.
  const SimConfig config = config_named("crossbar_voq_hot");
  const SimResult plain = run_reference_simulation(config);
  obs::Profiler::global().set_spans_enabled(true);
  const SimResult profiled = run_simulation(config);
  const SimResult profiled_reference = run_reference_simulation(config);
  obs::Profiler::global().set_spans_enabled(false);
  expect_identical(profiled, plain, "profiled crossbar_voq_hot");
  expect_identical(profiled_reference, plain,
                   "profiled reference crossbar_voq_hot");
}

}  // namespace
}  // namespace sfab
