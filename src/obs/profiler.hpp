// Phase timers plus optional span capture for Chrome trace-event /
// Perfetto export.
//
// ScopedPhase times one phase of the sweep/dist lifecycle and records its
// nanoseconds into a registry Histogram ("exp.unit_ns", "dist.claim_ns",
// ...), so phase totals land in the metrics snapshot beside every other
// instrument. Timers are always on: the shortest timed phase takes
// microseconds, against two clock reads and one uncontended lock per
// scope, and nothing inside a cycle loop is timed.
//
// The Profiler adds span capture for `--trace-out`: while spans are
// enabled, every finished scope is also kept as one span and rendered by
// write_trace_json() as Chrome trace-event JSON ("ph":"X" complete
// events), loadable in chrome://tracing or Perfetto. Span capture buffers
// every scope, so callers opt in. Timers only read the clock, so neither
// ever perturbs a simulation result.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "obs/registry.hpp"

namespace sfab::obs {

class Profiler {
 public:
  [[nodiscard]] static Profiler& global();

  [[nodiscard]] bool spans_enabled() const noexcept {
    return spans_enabled_.load(std::memory_order_relaxed);
  }
  void set_spans_enabled(bool enabled) noexcept {
    spans_enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Keeps one span of `phase` starting at `start_ns` (monotonic clock,
  /// see now_ns()) and lasting `duration_ns`, when span capture is on.
  void record(const Histogram& phase, std::uint64_t start_ns,
              std::uint64_t duration_ns) noexcept;

  /// Chrome trace-event JSON: {"traceEvents":[{"name","cat":"sfab",
  /// "ph":"X","pid","tid","ts","dur"},...]} with ts/dur in microseconds;
  /// each span is named after its phase histogram.
  void write_trace_json(std::ostream& out) const;

 private:
  Profiler() = default;

  struct Span {
    const Histogram* phase;
    std::uint32_t tid;
    std::uint64_t start_ns;
    std::uint64_t duration_ns;
  };

  std::atomic<bool> spans_enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Monotonic timestamp in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// RAII scope: observes its duration in `phase` from construction to
/// destruction (or finish()), and hands it to the profiler as a span.
class ScopedPhase {
 public:
  explicit ScopedPhase(Histogram& phase) noexcept
      : phase_(phase), start_ns_(now_ns()) {}
  ~ScopedPhase() { finish(); }
  /// Ends the scope early (idempotent) — for phases that do not align
  /// with a brace scope.
  void finish() noexcept {
    if (start_ns_ == 0) return;
    const std::uint64_t duration_ns = now_ns() - start_ns_;
    phase_.observe(duration_ns);
    Profiler::global().record(phase_, start_ns_, duration_ns);
    start_ns_ = 0;
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Histogram& phase_;
  std::uint64_t start_ns_;
};

}  // namespace sfab::obs
