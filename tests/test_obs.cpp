// Tests for the observability layer itself: registry exactness under
// concurrency, histogram bucketing, leveled logging, the phase
// profiler's aggregates and trace export, and the host provenance JSON. Bit-identity of *observed
// simulations* is covered separately by test_obs_identity.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/host.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/lane_sim.hpp"

namespace sfab::obs {
namespace {

TEST(Registry, CounterSumsExactlyUnderConcurrency) {
  Counter& counter = Registry::global().counter("test.concurrency.counter");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  const std::uint64_t before = counter.value();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.increment();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter.value(), before + kThreads * kPerThread);
}

TEST(Registry, CounterAddAccumulates) {
  Counter& counter = Registry::global().counter("test.counter.add");
  const std::uint64_t before = counter.value();
  counter.add(5);
  counter.add(0);
  counter.add(37);
  EXPECT_EQ(counter.value(), before + 42);
}

TEST(Registry, SameNameReturnsSameInstrument) {
  Counter& a = Registry::global().counter("test.idempotent");
  Counter& b = Registry::global().counter("test.idempotent");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, DisabledCountersDropIncrements) {
  Counter& counter = Registry::global().counter("test.disabled.counter");
  const std::uint64_t before = counter.value();
  set_metrics_enabled(false);
  counter.add(1000);
  set_metrics_enabled(true);
  EXPECT_EQ(counter.value(), before);
  counter.increment();
  EXPECT_EQ(counter.value(), before + 1);
}

TEST(Registry, GaugeObserveMaxKeepsHighWater) {
  Gauge& gauge = Registry::global().gauge("test.gauge.highwater");
  gauge.set(0);
  gauge.observe_max(7);
  gauge.observe_max(3);  // lower: ignored
  EXPECT_EQ(gauge.value(), 7u);
  gauge.observe_max(19);
  EXPECT_EQ(gauge.value(), 19u);
}

TEST(Registry, GaugeObserveMaxUnderConcurrency) {
  Gauge& gauge = Registry::global().gauge("test.gauge.race");
  gauge.set(0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&gauge, t] {
      for (std::uint64_t v = t; v < 10'000; v += 8) gauge.observe_max(v);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 9'999u);
}

TEST(Registry, HistogramBucketsMinMaxMean) {
  Histogram& histogram = Registry::global().histogram("test.histogram.basic");
  histogram.observe(0);    // bucket 0
  histogram.observe(1);    // bucket 1: [1, 2)
  histogram.observe(5);    // bucket 3: [4, 8)
  histogram.observe(6);    // bucket 3
  histogram.observe(900);  // bucket 10: [512, 1024)

  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 912u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 900u);
  EXPECT_DOUBLE_EQ(snap.mean(), 912.0 / 5.0);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.buckets[10], 1u);
}

TEST(Registry, HistogramCountExactUnderConcurrency) {
  Histogram& histogram = Registry::global().histogram("test.histogram.race");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) histogram.observe(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum, kThreads * (kPerThread * (kPerThread - 1) / 2));
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, kPerThread - 1);
}

TEST(Registry, ValueLookupsByName) {
  Counter& counter = Registry::global().counter("test.lookup.counter");
  counter.add(3);
  EXPECT_GE(Registry::global().counter_value("test.lookup.counter"), 3u);
  EXPECT_EQ(Registry::global().counter_value("test.lookup.never"), 0u);
  EXPECT_EQ(Registry::global().gauge_value("test.lookup.never"), 0u);
}

TEST(Registry, WriteJsonNestsDottedNames) {
  Registry::global().counter("test.json.tree.leaf_a").add(1);
  Registry::global().counter("test.json.tree.leaf_b").add(2);
  Registry::global().gauge("test.json.gauge").set(9);
  std::ostringstream out;
  Registry::global().write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"json\""), std::string::npos);
  EXPECT_NE(text.find("\"tree\""), std::string::npos);
  EXPECT_NE(text.find("\"leaf_a\""), std::string::npos);
  EXPECT_NE(text.find("\"leaf_b\""), std::string::npos);
  EXPECT_NE(text.find("\"gauge\": 9"), std::string::npos);
}

TEST(Log, LevelsFilterAndSinkCaptures) {
  std::ostringstream captured;
  set_log_sink(&captured);
  const LogLevel saved = log_level();

  set_log_level(LogLevel::kWarn);
  log_info("test", "invisible at warn");
  EXPECT_TRUE(captured.str().empty());
  log_warn("test", "visible ", 42);
  EXPECT_NE(captured.str().find("[warn] [test] visible 42"),
            std::string::npos);

  set_log_level(LogLevel::kDebug);
  log_debug("test", "now visible");
  EXPECT_NE(captured.str().find("[debug] [test] now visible"),
            std::string::npos);

  set_log_level(saved);
  set_log_sink(nullptr);
}

TEST(Log, ParseLevelNamesAndFallback) {
  EXPECT_EQ(parse_log_level("error", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("warn", LogLevel::kError), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("info", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kInfo), LogLevel::kInfo);
}

TEST(Profiler, AggregatesScopedPhases) {
  Profiler& profiler = Profiler::global();
  const PhaseId id = profiler.phase("test.profiler.scope");
  profiler.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    const ScopedPhase timer(id);
  }
  profiler.set_enabled(false);

  bool found = false;
  for (const Profiler::PhaseStats& stats : profiler.stats()) {
    if (stats.name != "test.profiler.scope") continue;
    found = true;
    EXPECT_GE(stats.calls, 3u);
    EXPECT_GE(stats.max_ns, stats.min_ns);
    EXPECT_GE(stats.total_ns, stats.max_ns);
  }
  EXPECT_TRUE(found);
}

TEST(Profiler, DisabledScopesRecordNothing) {
  Profiler& profiler = Profiler::global();
  const PhaseId id = profiler.phase("test.profiler.disabled");
  profiler.set_enabled(false);
  {
    const ScopedPhase timer(id);
  }
  for (const Profiler::PhaseStats& stats : profiler.stats()) {
    EXPECT_NE(stats.name, "test.profiler.disabled");
  }
}

TEST(Profiler, FinishIsIdempotent) {
  Profiler& profiler = Profiler::global();
  const PhaseId id = profiler.phase("test.profiler.finish");
  profiler.set_enabled(true);
  {
    ScopedPhase timer(id);
    timer.finish();
    timer.finish();  // second call must not double-record
  }                  // nor the destructor
  profiler.set_enabled(false);
  for (const Profiler::PhaseStats& stats : profiler.stats()) {
    if (stats.name == "test.profiler.finish") {
      EXPECT_EQ(stats.calls, 1u);
    }
  }
}

TEST(Profiler, TraceExportIsChromeTraceShaped) {
  Profiler& profiler = Profiler::global();
  const PhaseId id = profiler.phase("test.profiler.trace");
  profiler.set_spans_enabled(true);
  {
    const ScopedPhase timer(id);
  }
  profiler.set_spans_enabled(false);
  profiler.set_enabled(false);

  std::ostringstream out;
  profiler.write_trace_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"test.profiler.trace\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\": \"sfab\""), std::string::npos);
}

TEST(Profiler, StatsJsonCarriesPerPhaseTotals) {
  Profiler& profiler = Profiler::global();
  const PhaseId id = profiler.phase("test.profiler.statsjson");
  profiler.set_enabled(true);
  {
    const ScopedPhase timer(id);
  }
  profiler.set_enabled(false);

  std::ostringstream out;
  profiler.write_stats_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"test.profiler.statsjson\""), std::string::npos);
  EXPECT_NE(text.find("\"calls\""), std::string::npos);
  EXPECT_NE(text.find("\"total_ns\""), std::string::npos);
  EXPECT_NE(text.find("\"mean_ns\""), std::string::npos);
}

TEST(HostInfo, JsonNamesTheMachineAndTheDispatchedKernels) {
  // Benchmark provenance (perfbench embeds this object in every result):
  // one JSON object naming the CPU, the core count and both kernels.
  std::ostringstream out;
  write_host_json(out);
  const std::string json = out.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"cpu_model\": \"", "\"logical_cores\": ",
                          "\"gate_lane_kernel\": \"",
                          "\"packet_lane_kernel\": \""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"packet_lane_kernel\": \"" +
                      std::string(lane_sim_kernel_name()) + "\""),
            std::string::npos)
      << json;
#if defined(__x86_64__)
  // The x86-64-v2 baseline guarantees POPCNT; a build that lost the flag
  // would silently run the slower bit-hack popcounts.
  EXPECT_EQ(lane_sim_kernel_name(), "popcnt");
#endif
}

}  // namespace
}  // namespace sfab::obs
