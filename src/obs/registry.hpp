// Metrics registry: hierarchical named counters, gauges and histograms.
//
// The observability contract of the whole src/obs layer: instruments must
// never perturb a simulation (no RNG draws, no FP-order changes — metrics
// only *read* or count alongside). Every call site sits on a per-run,
// per-unit or per-shard path, never in a cycle loop, so instruments are
// always on and plain: a counter or gauge is one relaxed atomic word, a
// histogram one mutex-guarded snapshot. Both stay exact under concurrent
// writers.
//
// Naming is hierarchical by dots ("exp.cache.hits"); snapshots render the
// tree as nested JSON so `sfab_cli --metrics-out` embeds one
// self-describing object. Instruments register once (mutex-guarded) and
// hand back stable references the call sites cache.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace sfab::obs {

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write or high-water value (one word; writers race benignly).
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger (high-water mark semantics).
  void observe_max(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Log2-bucketed histogram over unsigned values (the caller picks the
/// unit — nanoseconds for latencies and phase timers). Bucket b counts
/// values v with bit_width(v) == b, i.e. v in [2^(b-1), 2^b); bucket 0
/// counts zeros.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;

  void observe(std::uint64_t v) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
    [[nodiscard]] double mean() const noexcept {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::string name_;
  mutable std::mutex mutex_;
  Snapshot snap_;
};

/// The process-wide instrument directory. Instruments live for the life
/// of the process (references returned stay valid forever); registration
/// is idempotent — the same name always returns the same instrument.
class Registry {
 public:
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Current value of a named counter/gauge; 0 when never registered
  /// (snapshot conveniences for tests and summaries).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::uint64_t gauge_value(std::string_view name) const;

  /// Renders every instrument as one nested JSON object, grouped by the
  /// dot-separated name hierarchy; histograms render as
  /// {"count","sum","mean","min","max"}. Keys are emitted sorted, so the
  /// output is deterministic.
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  template <class T>
  using Directory = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  Registry() = default;

  /// The instrument named `name`, created on first use. Caller holds
  /// mutex_.
  template <class T>
  static T& find_or_add(Directory<T>& directory, std::string_view name);

  mutable std::mutex mutex_;
  Directory<Counter> counters_;
  Directory<Gauge> gauges_;
  Directory<Histogram> histograms_;
};

}  // namespace sfab::obs
