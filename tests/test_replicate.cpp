// Tests for multi-seed replication statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "sim/lane_sim.hpp"
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
  // the kind of claim EXPERIMENTS.md makes, backed properly.
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

TEST(Replicate, LanedAndScalarEnginesAgreeBitForBit) {
  // The default (laned) engine must reproduce the scalar reference run
  // for run: same seeds, same SimResults, same summary statistics. This is
  // the equivalence CI pins under ASan+UBSan.
  SimConfig c;
  c.arch = Architecture::kCrossbar;
  c.scheme = RouterScheme::kVoq;
  c.ports = 8;
  c.offered_load = 0.6;
  c.warmup_cycles = 200;
  c.measure_cycles = 2'000;
  c.seed = 99;
  const ReplicatedResult laned = replicate(c, 6);
  const ReplicatedResult scalar = replicate(c, 6, ReplicateEngine::kScalar);
  ASSERT_EQ(laned.runs.size(), scalar.runs.size());
  for (std::size_t k = 0; k < laned.runs.size(); ++k) {
    EXPECT_EQ(laned.runs[k].delivered_packets,
              scalar.runs[k].delivered_packets);
    EXPECT_EQ(laned.runs[k].delivered_words, scalar.runs[k].delivered_words);
    EXPECT_EQ(laned.runs[k].power_w, scalar.runs[k].power_w);
    EXPECT_EQ(laned.runs[k].energy_per_bit_j, scalar.runs[k].energy_per_bit_j);
    EXPECT_EQ(laned.runs[k].mean_packet_latency_cycles,
              scalar.runs[k].mean_packet_latency_cycles);
  }
  EXPECT_EQ(laned.power_w.mean, scalar.power_w.mean);
  EXPECT_EQ(laned.power_w.ci95_half, scalar.power_w.ci95_half);
  EXPECT_EQ(laned.egress_throughput.mean, scalar.egress_throughput.mean);
}

TEST(Replicate, SupportedGridNeverFallsBack) {
  // Every (arch, scheme) cell of the sweep grid except mesh is laned: a
  // replicate batch over the supported grid must never take the per-lane
  // scalar fallback. Pinned through the fallback counters so a support
  // regression (or a footprint mis-estimate) fails here, not silently in
  // a 60x-slower sweep.
  obs::Counter& fallback =
      obs::Registry::global().counter("sim.lane.fallback_lanes");
  obs::Counter& laned =
      obs::Registry::global().counter("sim.lane.laned_lanes");
  const std::uint64_t fallback_before = fallback.value();
  const std::uint64_t laned_before = laned.value();
  constexpr Architecture kArchs[] = {
      Architecture::kCrossbar, Architecture::kFullyConnected,
      Architecture::kBatcherBanyan, Architecture::kBanyan};
  constexpr RouterScheme kSchemes[] = {RouterScheme::kVoq,
                                       RouterScheme::kFifo};
  std::uint64_t batches = 0;
  for (const Architecture arch : kArchs) {
    for (const RouterScheme scheme : kSchemes) {
      SimConfig c;
      c.arch = arch;
      c.scheme = scheme;
      c.ports = 8;
      c.offered_load = 0.5;
      c.warmup_cycles = 50;
      c.measure_cycles = 200;
      c.seed = 5;
      ASSERT_EQ(lane_sim_fallback_reason(c), LaneFallbackReason::kNone)
          << to_string(arch) << "/" << to_string(scheme) << " would fall "
          << "back: " << to_string(lane_sim_fallback_reason(c));
      ASSERT_TRUE(lane_sim_supported(c));
      std::vector<std::uint64_t> seeds(3);
      for (unsigned k = 0; k < seeds.size(); ++k) {
        seeds[k] = derive_stream_seed(c.seed, k);
      }
      ASSERT_EQ(run_lane_simulations(c, seeds).size(), seeds.size());
      ++batches;
    }
  }
  EXPECT_EQ(fallback.value(), fallback_before)
      << "a supported-grid batch took the scalar fallback";
  EXPECT_EQ(laned.value(), laned_before + batches * 3);
}

TEST(Replicate, SeedsMatchSweepSpecDerivation) {
  // replicate() and SweepSpec share one seed derivation
  // (derive_stream_seed(base, k)), so a replicate batch and a
  // replicates-axis sweep of the same base seed sample identical streams.
  SimConfig c;
  c.arch = Architecture::kCrossbar;
  c.scheme = RouterScheme::kVoq;
  c.ports = 4;
  c.offered_load = 0.5;
  c.warmup_cycles = 100;
  c.measure_cycles = 1'000;
  c.seed = 31;
  const ReplicatedResult batch = replicate(c, 3);
  for (unsigned k = 0; k < 3; ++k) {
    SimConfig single = c;
    single.seed = derive_stream_seed(c.seed, k);
    const SimResult reference = run_reference_simulation(single);
    EXPECT_EQ(batch.runs[k].power_w, reference.power_w);
    EXPECT_EQ(batch.runs[k].delivered_packets, reference.delivered_packets);
  }
}

TEST(Replicate, Validation) {
  SimConfig c;
  EXPECT_THROW((void)replicate(c, 0), std::invalid_argument);
  EXPECT_THROW((void)replicate(c, 0, ReplicateEngine::kScalar),
               std::invalid_argument);
}

}  // namespace
}  // namespace sfab
