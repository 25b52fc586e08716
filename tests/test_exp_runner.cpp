// Tests for the thread-pooled sweep runner: bit-identical results at any
// thread count, error propagation, and the migrated load-sweep semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "obs/registry.hpp"

namespace sfab {
namespace {

/// A cheap base config so a 64-run grid stays fast.
SimConfig quick_base() {
  SimConfig c;
  c.ports = 4;
  c.warmup_cycles = 200;
  c.measure_cycles = 1'500;
  c.seed = 99;
  return c;
}

/// The determinism contract: same spec, 1 thread vs N threads, bit-equal.
void expect_bit_identical(const ResultSet& a, const ResultSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.seed, b[i].config.seed) << i;
    EXPECT_EQ(a[i].result.delivered_words, b[i].result.delivered_words) << i;
    EXPECT_EQ(a[i].result.delivered_packets, b[i].result.delivered_packets)
        << i;
    EXPECT_EQ(a[i].result.words_buffered, b[i].result.words_buffered) << i;
    // Power sums per-event energies in simulation order within one run, so
    // even the doubles are bit-equal, not merely close.
    EXPECT_EQ(a[i].result.power_w, b[i].result.power_w) << i;
    EXPECT_EQ(a[i].result.energy_per_bit_j, b[i].result.energy_per_bit_j)
        << i;
    EXPECT_EQ(a[i].result.egress_throughput, b[i].result.egress_throughput)
        << i;
  }
}

TEST(SweepRunner, ParallelRunIsBitIdenticalToSerial) {
  // >= 64 runs: 2 archs x 2 loads x 2 patterns x 2 replicates x 4 ports...
  // keep it 2x2x2x2x2x2 = 64 via six two-value axes.
  SweepSpec spec;
  spec.base = quick_base();
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_ports({4, 8})
      .over_loads({0.2, 0.4})
      .over_patterns(
          {TrafficPatternKind::kUniform, TrafficPatternKind::kBitReversal})
      .over_packet_words({4, 8})
      .with_replicates(2);
  ASSERT_EQ(spec.run_count(), 64u);

  const ResultSet serial = SweepRunner(1).run(spec);
  const ResultSet parallel4 = SweepRunner(4).run(spec);
  const ResultSet parallel7 = SweepRunner(7).run(spec);
  expect_bit_identical(serial, parallel4);
  expect_bit_identical(serial, parallel7);
}

TEST(SweepRunner, RecordsKeepExpansionOrderAndResolvedConfigs) {
  SweepSpec spec;
  spec.base = quick_base();
  spec.over_loads({0.1, 0.3}).with_replicates(2);
  const ResultSet results = SweepRunner(3).run(spec);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
  }
  EXPECT_DOUBLE_EQ(results[0].config.offered_load, 0.1);
  EXPECT_EQ(results[1].replicate, 1u);
  EXPECT_DOUBLE_EQ(results[2].config.offered_load, 0.3);
  // The result carries the run's identification block.
  EXPECT_DOUBLE_EQ(results[2].result.offered_load, 0.3);
}

TEST(SweepRunner, DefaultsToHardwareConcurrency) {
  EXPECT_GE(SweepRunner().threads(), 1u);
  EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

TEST(SweepRunner, RunErrorsPropagate) {
  // The expansion validates every config, so the error surfaces before
  // any run starts. (A pool worker's exception propagating is covered by
  // ThrowingOnRecordCallbackAbortsTheSweep.)
  obs::Counter& passes =
      obs::Registry::global().counter("sim.lane.laned_passes");
  SweepSpec spec;
  spec.base = quick_base();
  spec.base.measure_cycles = 0;  // validate() rejects this
  spec.over_loads({0.1, 0.2, 0.3});
  const std::uint64_t passes_before = passes.value();
  EXPECT_THROW((void)SweepRunner(2).run(spec), std::invalid_argument);
  EXPECT_EQ(passes.value(), passes_before);
}

TEST(SweepRunner, SelectAndStatAggregateReplicates) {
  SweepSpec spec;
  spec.base = quick_base();
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_loads({0.3})
      .with_replicates(3);
  const ResultSet results = run_sweep(spec, 2);
  const auto banyan = results.select([](const RunRecord& rec) {
    return rec.config.arch == Architecture::kBanyan;
  });
  ASSERT_EQ(banyan.size(), 3u);
  const Statistic power = results.stat(
      [](const RunRecord& rec) {
        return rec.config.arch == Architecture::kBanyan;
      },
      metrics::power_w);
  EXPECT_GT(power.mean, 0.0);
  EXPECT_GE(power.max, power.min);
}

TEST(SweepRunner, OnRecordFiresExactlyOncePerRecord) {
  // The streaming callback contract: exactly one call per record — for
  // computed leaders, replicate followers, and cache hits alike — with the
  // result already filled in.
  SweepSpec spec;
  spec.base = quick_base();
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_loads({0.2, 0.5})
      .with_replicates(3);
  ASSERT_EQ(spec.run_count(), 12u);

  std::mutex mutex;
  std::vector<int> calls(spec.run_count(), 0);
  auto count = [&](const RunRecord& rec) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_LT(rec.index, calls.size());
    ++calls[rec.index];
    EXPECT_GT(rec.result.delivered_words, 0u)
        << "callback must see a completed result";
  };

  const ResultSet direct =
      SweepRunner(3).with_on_record(count).run(spec);
  for (std::size_t i = 0; i < calls.size(); ++i)
    EXPECT_EQ(calls[i], 1) << "run " << i;

  // A warm cache short-circuits the simulation but not the callback.
  ResultCache cache;
  (void)SweepRunner(1).with_cache(&cache).run(spec);
  std::fill(calls.begin(), calls.end(), 0);
  const ResultSet cached =
      SweepRunner(2).with_cache(&cache).with_on_record(count).run(spec);
  for (std::size_t i = 0; i < calls.size(); ++i)
    EXPECT_EQ(calls[i], 1) << "cached run " << i;
  expect_bit_identical(direct, cached);
}

TEST(SweepRunner, ThrowingOnRecordCallbackAbortsTheSweep) {
  SweepSpec spec;
  spec.base = quick_base();
  spec.over_loads({0.2, 0.5});
  auto boom = [](const RunRecord&) {
    throw std::runtime_error("stream sink failed");
  };
  EXPECT_THROW((void)SweepRunner(2).with_on_record(boom).run(spec),
               std::runtime_error);
}

/// The expansion indices in the order `spec`'s records fire on one thread.
std::vector<std::size_t> firing_order(const SweepSpec& spec,
                                      ResultSet* results) {
  std::vector<std::size_t> fired;
  *results = SweepRunner(1)
                 .with_on_record([&](const RunRecord& rec) {
                   fired.push_back(rec.index);
                 })
                 .run(spec);
  return fired;
}

TEST(SweepRunner, StartsTheLargestUnitFirst) {
  // A 32-port unit has eight times the work of a 4-port one, so it starts
  // first even though it expands second; the records still come back in
  // expansion order.
  SweepSpec spec;
  spec.base = quick_base();
  spec.over_ports({4, 32}).with_replicates(2);
  ResultSet results;
  const std::vector<std::size_t> fired = firing_order(spec, &results);
  EXPECT_EQ(fired, (std::vector<std::size_t>{2, 3, 0, 1}));
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
  }
  EXPECT_EQ(results[0].config.ports, 4u);
  EXPECT_EQ(results[2].config.ports, 32u);
}

TEST(SweepRunner, UnitsOfEqualWorkStartInExpansionOrder) {
  // One arch and port count at two loads: the work estimates tie, and the
  // stable order keeps expansion order, so a shard of one grid shape
  // streams its rows in order.
  SweepSpec spec;
  spec.base = quick_base();
  spec.over_loads({0.5, 0.2}).with_replicates(2);
  ResultSet results;
  EXPECT_EQ(firing_order(spec, &results),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

// --- migrated sweep_offered_load ---------------------------------------------

TEST(SweepRunner, LoneUnitsTakeTheLaneEngineAndScalarTheReference) {
  // Every record is one packet-engine run — a lone run one, a
  // 3-replicate grid point three, a lone mesh run one — and kScalar
  // bypasses the packet engine entirely, with bit-identical records
  // either way.
  obs::Counter& passes =
      obs::Registry::global().counter("sim.lane.laned_passes");
  SweepSpec lone;
  lone.base = quick_base();
  SweepSpec replicated = lone;
  replicated.with_replicates(3);
  SweepSpec mesh = lone;
  mesh.base.arch = Architecture::kMesh;

  const std::uint64_t passes_before = passes.value();
  const ResultSet laned = SweepRunner(1).run(lone);
  EXPECT_EQ(passes.value(), passes_before + 1);
  const ResultSet laned_replicated = SweepRunner(1).run(replicated);
  EXPECT_EQ(passes.value(), passes_before + 4);
  const ResultSet laned_mesh = SweepRunner(1).run(mesh);
  EXPECT_EQ(passes.value(), passes_before + 5);

  SweepRunner reference(1);
  reference.with_engine(ReplicateEngine::kScalar);
  expect_bit_identical(reference.run(lone), laned);
  expect_bit_identical(reference.run(replicated), laned_replicated);
  expect_bit_identical(reference.run(mesh), laned_mesh);
  EXPECT_EQ(passes.value(), passes_before + 5);
}

TEST(SweepOfferedLoad, RunsEveryLoad) {
  SimConfig base = quick_base();
  base.arch = Architecture::kFullyConnected;
  base.ports = 8;
  base.measure_cycles = 8'000;
  base.warmup_cycles = 1'000;
  const auto results = sweep_offered_load(base, {0.1, 0.3, 0.5});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[0].offered_load, 0.1);
  EXPECT_DOUBLE_EQ(results[2].offered_load, 0.5);
  EXPECT_LT(results[0].power_w, results[2].power_w);
}

TEST(SweepOfferedLoad, PairedPointsShareOneDerivedSeed) {
  // Documented semantics: every load point reuses the same base-derived
  // seed, so a load sweep is paired (same arrival randomness per point).
  SimConfig base = quick_base();
  const auto results = sweep_offered_load(base, {0.25, 0.25});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].delivered_words, results[1].delivered_words);
  EXPECT_EQ(results[0].power_w, results[1].power_w);

  // And the seed in play is derive_stream_seed(base.seed, 0): running the
  // same config through the reference engine directly reproduces the
  // sweep.
  SimConfig direct = base;
  direct.offered_load = 0.25;
  direct.seed = derive_stream_seed(base.seed, 0);
  const SimResult lone = run_reference_simulation(direct);
  EXPECT_EQ(lone.delivered_words, results[0].delivered_words);
  EXPECT_EQ(lone.power_w, results[0].power_w);
}

}  // namespace
}  // namespace sfab
