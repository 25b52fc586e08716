// Tests for multi-seed replication statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "sim/replicate.hpp"

namespace sfab {
namespace {

TEST(Summarize, BasicMoments) {
  const Statistic s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);  // sample (n-1) stddev
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_GT(s.ci95_half, 0.0);
}

TEST(Summarize, SingleSampleHasNoSpread) {
  const Statistic s = summarize({3.5});
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half, 0.0);
}

TEST(Summarize, ConstantSamplesHaveZeroCi) {
  const Statistic s = summarize({1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half, 0.0);
}

TEST(Summarize, TwoSamplesUseWideTQuantile) {
  // dof = 1: t = 12.706; half-width = t * s / sqrt(2).
  const Statistic s = summarize({0.0, 2.0});
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(s.ci95_half, 12.706 * std::sqrt(2.0) / std::sqrt(2.0), 1e-9);
}

TEST(Summarize, EmptyThrows) {
  EXPECT_THROW((void)summarize({}), std::invalid_argument);
}

TEST(Statistic, Distinguishability) {
  Statistic a;
  a.mean = 1.0;
  a.ci95_half = 0.1;
  Statistic b;
  b.mean = 1.5;
  b.ci95_half = 0.1;
  EXPECT_TRUE(a.distinguishable_from(b));
  b.mean = 1.15;
  EXPECT_FALSE(a.distinguishable_from(b));
}

TEST(Replicate, RunsDistinctSeedsAndSummarizes) {
  SimConfig c;
  c.arch = Architecture::kCrossbar;
  c.ports = 8;
  c.offered_load = 0.3;
  c.warmup_cycles = 500;
  c.measure_cycles = 10'000;
  c.seed = 7;
  const ReplicatedResult r = replicate(c, 5);
  ASSERT_EQ(r.replications, 5u);
  ASSERT_EQ(r.runs.size(), 5u);
  // Seeds differ, so runs are not bit-identical...
  EXPECT_GT(r.power_w.stddev, 0.0);
  // ...but steady-state power is tight across seeds.
  EXPECT_LT(r.power_w.ci95_half, 0.10 * r.power_w.mean);
  EXPECT_NEAR(r.egress_throughput.mean, 0.3, 0.02);
  EXPECT_GE(r.power_w.max, r.power_w.mean);
  EXPECT_LE(r.power_w.min, r.power_w.mean);
}

TEST(Replicate, ArchitecturalGapsAreStatisticallyReal) {
  // FC vs crossbar at 16 ports must be distinguishable at 95% confidence —
  // the kind of architectural-gap claim ROADMAP.md item 5 records against
  // the paper, backed properly.
  SimConfig c;
  c.ports = 16;
  c.offered_load = 0.4;
  c.warmup_cycles = 500;
  c.measure_cycles = 4'000;
  c.arch = Architecture::kCrossbar;
  const ReplicatedResult crossbar = replicate(c, 4);
  c.arch = Architecture::kFullyConnected;
  const ReplicatedResult fc = replicate(c, 4);
  EXPECT_TRUE(crossbar.power_w.distinguishable_from(fc.power_w));
}

TEST(Replicate, SupportedGridNeverFallsBack) {
  // Every (arch, scheme) cell of the sweep grid runs on the packet
  // engine, up to its 64-port edge (mesh at the square counts 16 and 64):
  // validate() admits each config, and every run is counted as an engine
  // run. A support regression (or a footprint mis-estimate) fails here.
  obs::Counter& engine_runs =
      obs::Registry::global().counter("sim.lane.laned_lanes");
  const std::uint64_t engine_before = engine_runs.value();
  constexpr RouterScheme kSchemes[] = {RouterScheme::kVoq,
                                       RouterScheme::kFifo};
  constexpr unsigned kSeeds = 3;
  std::uint64_t runs = 0;
  const auto run_cell = [&](Architecture arch, unsigned ports) {
    for (const RouterScheme scheme : kSchemes) {
      SimConfig c;
      c.arch = arch;
      c.scheme = scheme;
      c.ports = ports;
      c.offered_load = 0.5;
      c.warmup_cycles = 50;
      c.measure_cycles = 200;
      c.seed = 5;
      ASSERT_NO_THROW(validate(c))
          << to_string(arch) << "/" << to_string(scheme) << " at " << ports
          << " ports";
      for (unsigned k = 0; k < kSeeds; ++k) {
        SimConfig run = c;
        run.seed = derive_stream_seed(c.seed, k);
        EXPECT_EQ(run_simulation(run).ports, ports);
        ++runs;
      }
    }
  };
  for (const unsigned ports : {8u, 32u, 64u}) {
    for (const Architecture arch :
         {Architecture::kCrossbar, Architecture::kFullyConnected,
          Architecture::kBatcherBanyan, Architecture::kBanyan}) {
      run_cell(arch, ports);
    }
  }
  for (const unsigned ports : {16u, 64u}) run_cell(Architecture::kMesh, ports);
  EXPECT_EQ(engine_runs.value(), engine_before + runs);
}

TEST(Replicate, SeedsMatchSweepSpecDerivation) {
  // replicate() and SweepSpec share one seed derivation
  // (derive_stream_seed(base, k)), so a replicate batch and a
  // replicates-axis sweep of the same base seed sample identical streams:
  // replicate k is the reference run under that seed, field for field,
  // and so are the summary statistics.
  SimConfig c;
  c.arch = Architecture::kCrossbar;
  c.scheme = RouterScheme::kVoq;
  c.ports = 8;
  c.offered_load = 0.6;
  c.warmup_cycles = 200;
  c.measure_cycles = 2'000;
  c.seed = 99;
  constexpr unsigned kReplicates = 6;
  const ReplicatedResult batch = replicate(c, kReplicates);
  ASSERT_EQ(batch.runs.size(), kReplicates);
  std::vector<double> power;
  for (unsigned k = 0; k < kReplicates; ++k) {
    SimConfig single = c;
    single.seed = derive_stream_seed(c.seed, k);
    const SimResult reference = run_reference_simulation(single);
    const SimResult& run = batch.runs[k];
    EXPECT_EQ(run.arch, reference.arch);
    EXPECT_EQ(run.ports, reference.ports);
    EXPECT_EQ(run.offered_load, reference.offered_load);
    EXPECT_EQ(run.egress_throughput, reference.egress_throughput);
    EXPECT_EQ(run.delivered_words, reference.delivered_words);
    EXPECT_EQ(run.delivered_packets, reference.delivered_packets);
    EXPECT_EQ(run.input_queue_drops, reference.input_queue_drops);
    EXPECT_EQ(run.mean_packet_latency_cycles,
              reference.mean_packet_latency_cycles);
    EXPECT_EQ(run.power_w, reference.power_w);
    EXPECT_EQ(run.switch_power_w, reference.switch_power_w);
    EXPECT_EQ(run.buffer_power_w, reference.buffer_power_w);
    EXPECT_EQ(run.wire_power_w, reference.wire_power_w);
    EXPECT_EQ(run.energy_per_bit_j, reference.energy_per_bit_j);
    EXPECT_EQ(run.words_buffered, reference.words_buffered);
    EXPECT_EQ(run.sram_buffered_words, reference.sram_buffered_words);
    EXPECT_EQ(run.stall_cycles, reference.stall_cycles);
    EXPECT_EQ(run.measured_cycles, reference.measured_cycles);
    power.push_back(reference.power_w);
  }
  const Statistic reference_power = summarize(power);
  EXPECT_EQ(batch.power_w.mean, reference_power.mean);
  EXPECT_EQ(batch.power_w.ci95_half, reference_power.ci95_half);
}

TEST(Replicate, Validation) {
  SimConfig c;
  EXPECT_THROW((void)replicate(c, 0), std::invalid_argument);
}

}  // namespace
}  // namespace sfab
