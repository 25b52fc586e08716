// Tests for the sweep result cache (exp/cache.hpp) and its SweepRunner
// integration: canonical keys, hit/miss accounting, CSV round-trip, and
// cold-vs-warm row equivalence.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cache.hpp"
#include "exp/runner.hpp"
#include "obs/registry.hpp"

namespace sfab {
namespace {

SimConfig small_config() {
  SimConfig c;
  c.arch = Architecture::kCrossbar;
  c.ports = 4;
  c.offered_load = 0.4;
  c.warmup_cycles = 200;
  c.measure_cycles = 1'000;
  c.seed = 7;
  return c;
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.ports, b.ports);
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.egress_throughput, b.egress_throughput);
  EXPECT_EQ(a.delivered_words, b.delivered_words);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.input_queue_drops, b.input_queue_drops);
  EXPECT_EQ(a.mean_packet_latency_cycles, b.mean_packet_latency_cycles);
  EXPECT_EQ(a.power_w, b.power_w);
  EXPECT_EQ(a.switch_power_w, b.switch_power_w);
  EXPECT_EQ(a.buffer_power_w, b.buffer_power_w);
  EXPECT_EQ(a.wire_power_w, b.wire_power_w);
  EXPECT_EQ(a.energy_per_bit_j, b.energy_per_bit_j);
  EXPECT_EQ(a.words_buffered, b.words_buffered);
  EXPECT_EQ(a.sram_buffered_words, b.sram_buffered_words);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
}

/// Temp-file path unique to the test; removed on destruction.
struct TempCsv {
  std::string path;
  explicit TempCsv(const char* name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempCsv() { std::remove(path.c_str()); }
};

// --- canonical key ----------------------------------------------------------

TEST(ResultCacheKey, StableForIdenticalConfigs) {
  EXPECT_EQ(ResultCache::key_of(small_config()),
            ResultCache::key_of(small_config()));
  EXPECT_EQ(ResultCache::key_of(small_config()).size(), 32u);
}

TEST(ResultCacheKey, SensitiveToEveryAxis) {
  const std::string base = ResultCache::key_of(small_config());

  SimConfig c = small_config();
  c.seed = 8;
  EXPECT_NE(ResultCache::key_of(c), base);

  c = small_config();
  c.offered_load = 0.41;
  EXPECT_NE(ResultCache::key_of(c), base);

  c = small_config();
  c.arch = Architecture::kBanyan;
  EXPECT_NE(ResultCache::key_of(c), base);

  c = small_config();
  c.scheme = RouterScheme::kVoq;
  EXPECT_NE(ResultCache::key_of(c), base);

  c = small_config();
  c.tech = TechnologyParams::preset("0.13um");
  EXPECT_NE(ResultCache::key_of(c), base);

  c = small_config();
  c.switches = c.switches.scaled_to(TechnologyParams::preset("0.13um"));
  EXPECT_NE(ResultCache::key_of(c), base);

  c = small_config();
  c.measure_cycles += 1;
  EXPECT_NE(ResultCache::key_of(c), base);
}

// --- in-memory cache --------------------------------------------------------

TEST(ResultCache, MissThenHit) {
  ResultCache cache;
  const SimConfig config = small_config();
  EXPECT_FALSE(cache.lookup(config).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const SimResult result = run_simulation(config);
  cache.store(config, result);
  EXPECT_EQ(cache.size(), 1u);

  const auto cached = cache.lookup(config);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  expect_same_result(*cached, result);
}

// --- CSV-backed store -------------------------------------------------------

TEST(ResultCache, CsvRoundTripIsBitExact) {
  TempCsv csv{"sfab_cache_roundtrip.csv"};
  const SimConfig config = small_config();
  const SimResult result = run_simulation(config);

  {
    ResultCache writer{csv.path};
    writer.store(config, result);
  }
  ResultCache reader{csv.path};
  EXPECT_EQ(reader.size(), 1u);
  const auto cached = reader.lookup(config);
  ASSERT_TRUE(cached.has_value());
  expect_same_result(*cached, result);  // hexfloat rows round-trip exactly
}

// --- malformed rows ---------------------------------------------------------

/// Reads the single data row a fresh cache file contains.
std::string read_data_row(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

/// Returns `row` with field `index` replaced by `value`.
std::string with_field(const std::string& row, std::size_t index,
                       const std::string& value) {
  std::vector<std::string> fields;
  std::stringstream stream(row);
  std::string field;
  while (std::getline(stream, field, ',')) fields.push_back(field);
  fields.at(index) = value;
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    out += fields[i];
  }
  return out;
}

TEST(ResultCache, MalformedRowsAreDroppedAndCounted) {
  TempCsv csv{"sfab_cache_malformed.csv"};
  const SimConfig config = small_config();
  const SimResult result = run_simulation(config);
  {
    ResultCache writer{csv.path};
    writer.store(config, result);
  }
  const std::string good = read_data_row(csv.path);
  ASSERT_FALSE(good.empty());

  // Corruptions a torn or interleaved append can produce. Each must be
  // dropped, not half-parsed into a poisoned hit: a negative count
  // (strtoull would silently wrap "-5" to 2^64-5), an overflowing count
  // (strtoull saturates and only errno tells), trailing garbage, a
  // whitespace-prefixed double, a truncated row, and a wrong-length key.
  const std::string bad_rows[] = {
      with_field(good, 2, "-5"),
      with_field(good, 5, "99999999999999999999999999"),
      with_field(good, 14, "12x"),
      with_field(good, 16, "0x10"),
      with_field(good, 3, " 0.5"),
      good.substr(0, good.size() / 2),
      with_field(good, 0, "abc123"),
  };
  {
    std::ofstream out(csv.path, std::ios::app);
    for (const std::string& row : bad_rows) out << row << '\n';
  }

  const std::uint64_t errors_before =
      obs::Registry::global().counter("exp.cache.parse_errors").value();
  ResultCache reader{csv.path};
  // Only the intact row survives, and it round-trips exactly.
  EXPECT_EQ(reader.size(), 1u);
  const auto cached = reader.lookup(config);
  ASSERT_TRUE(cached.has_value());
  expect_same_result(*cached, result);
  EXPECT_EQ(
      obs::Registry::global().counter("exp.cache.parse_errors").value() -
          errors_before,
      std::size(bad_rows));
}

// --- SweepRunner integration ------------------------------------------------

SweepSpec small_sweep() {
  SweepSpec spec;
  spec.base = small_config();
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_loads({0.2, 0.5})
      .with_replicates(2);
  return spec;
}

TEST(SweepRunnerCache, WarmRunSkipsEverySimulationAndMatchesColdRows) {
  const SweepSpec spec = small_sweep();
  const ResultSet uncached = SweepRunner{1}.run(spec);

  ResultCache cache;
  const ResultSet cold = SweepRunner{1}.with_cache(&cache).run(spec);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), spec.run_count());
  EXPECT_EQ(cache.size(), spec.run_count());

  const ResultSet warm = SweepRunner{1}.with_cache(&cache).run(spec);
  EXPECT_EQ(cache.hits(), spec.run_count());  // every run served from cache

  ASSERT_EQ(cold.size(), uncached.size());
  ASSERT_EQ(warm.size(), uncached.size());
  for (std::size_t i = 0; i < uncached.size(); ++i) {
    expect_same_result(cold[i].result, uncached[i].result);
    expect_same_result(warm[i].result, uncached[i].result);
  }
}

TEST(SweepRunnerCache, OverlappingGridsShareAcrossSweeps) {
  ResultCache cache;
  // fig9-style sweep then a fig10-style sweep over the same grid points:
  // the second sweep re-simulates nothing.
  const ResultSet first = SweepRunner{1}.with_cache(&cache).run(small_sweep());
  const std::uint64_t misses_after_first = cache.misses();

  SweepSpec overlapping = small_sweep();  // same axes, same seeds
  const ResultSet second =
      SweepRunner{1}.with_cache(&cache).run(overlapping);
  EXPECT_EQ(cache.misses(), misses_after_first);  // zero new misses
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_result(second[i].result, first[i].result);
  }
}

TEST(SweepRunnerCache, DuplicateGridPointsRunOnce) {
  // A duplicated axis value resolves to byte-identical configs; with a
  // cache attached the sweep executes the point once and copies the row.
  SweepSpec spec;
  spec.base = small_config();
  spec.over_loads({0.3, 0.3});

  ResultCache cache;
  const ResultSet results = SweepRunner{1}.with_cache(&cache).run(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(cache.size(), 1u);  // one unique resolved config
  expect_same_result(results[0].result, results[1].result);
}

TEST(SweepRunnerCache, ThreadedWarmRunIsIdentical) {
  const SweepSpec spec = small_sweep();
  ResultCache cache;
  const ResultSet cold = SweepRunner{4}.with_cache(&cache).run(spec);
  const ResultSet warm = SweepRunner{4}.with_cache(&cache).run(spec);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    expect_same_result(warm[i].result, cold[i].result);
  }
}

}  // namespace
}  // namespace sfab
