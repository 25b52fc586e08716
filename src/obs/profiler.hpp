// Phase profiler: RAII scoped timers over named phases, aggregated
// per-phase totals plus optional span capture for Chrome trace-event /
// Perfetto export.
//
// Two products from the same instrument:
//   * per-phase aggregates (call count, total/min/max ns) — always
//     collected while the profiler is enabled; rendered into bench JSON
//     via write_stats_json().
//   * trace spans — individual begin/duration events retained only when
//     span capture is on (it buffers per span, so callers opt in);
//     rendered as Chrome trace-event JSON ("ph":"X" complete events)
//     via write_trace_json() and loadable in chrome://tracing or
//     Perfetto.
//
// Like the rest of src/obs: disabled means one relaxed atomic bool and
// a predictable branch per scope, and enabling it never perturbs
// simulation results — timers only read the clock. Phase names are
// interned once (mutex, cold); hot call sites cache the PhaseId.
// Per-phase stats are sharded per thread like registry counters; span
// capture appends to per-thread buffers merged at export.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sfab::obs {

/// Interned phase handle; cheap to copy, stable for process lifetime.
struct PhaseId {
  std::uint32_t index = 0;
};

class Profiler {
 public:
  [[nodiscard]] static Profiler& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  [[nodiscard]] bool spans_enabled() const noexcept {
    return spans_enabled_.load(std::memory_order_relaxed);
  }
  /// Span capture implies the profiler itself is enabled.
  void set_spans_enabled(bool enabled) noexcept {
    spans_enabled_.store(enabled, std::memory_order_relaxed);
    if (enabled) set_enabled(true);
  }

  /// Interns `name` ("exp.unit", "dist.claim", ...); idempotent.
  [[nodiscard]] PhaseId phase(std::string_view name);

  /// Records one completed scope of `id` lasting `duration_ns`,
  /// starting at `start_ns` (monotonic clock, see now_ns()).
  void record(PhaseId id, std::uint64_t start_ns,
              std::uint64_t duration_ns) noexcept;

  struct PhaseStats {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
  };
  /// Aggregates for every phase with at least one recorded scope,
  /// sorted by name.
  [[nodiscard]] std::vector<PhaseStats> stats() const;

  /// {"<phase>": {"calls","total_ns","mean_ns","min_ns","max_ns"}, ...},
  /// keys sorted. `indent` spaces prefix nested lines.
  void write_stats_json(std::ostream& out, int indent = 0) const;

  /// Chrome trace-event JSON: {"traceEvents":[{"name","cat":"sfab",
  /// "ph":"X","pid","tid","ts","dur"},...]} with ts/dur in microseconds.
  void write_trace_json(std::ostream& out) const;

  /// Drops recorded stats and captured spans (phase interning persists).
  void reset();

 private:
  Profiler() = default;

  struct alignas(64) PhaseShard {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
  };
  struct Phase {
    std::string name;
    std::vector<PhaseShard> shards;  // kMetricShards, sized at intern
    std::atomic<std::uint64_t> min_ns{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_ns{0};
  };
  struct Span {
    std::uint32_t phase;
    std::uint32_t tid;
    std::uint64_t start_ns;
    std::uint64_t duration_ns;
  };
  struct SpanBuffer;  // per-thread, registered under mutex_

  // Phases live in fixed slots published by an atomic count (written
  // under mutex_, read lock-free): record() never takes a lock.
  static constexpr std::uint32_t kMaxPhases = 256;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> spans_enabled_{false};
  mutable std::mutex mutex_;
  std::array<std::unique_ptr<Phase>, kMaxPhases> phases_;
  std::atomic<std::uint32_t> phase_count_{0};
  std::vector<std::unique_ptr<SpanBuffer>> span_buffers_;

  SpanBuffer& this_thread_spans();
};

/// Monotonic timestamp in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// RAII scope: records `phase` from construction to destruction when the
/// profiler is enabled; near-free (one load, one branch) when disabled.
class ScopedPhase {
 public:
  explicit ScopedPhase(PhaseId phase) noexcept
      : profiler_(Profiler::global()), phase_(phase) {
    if (profiler_.enabled()) start_ns_ = now_ns();
  }
  ~ScopedPhase() { finish(); }
  /// Ends the scope early (idempotent) — for phases that do not align
  /// with a brace scope.
  void finish() noexcept {
    if (start_ns_ != 0 && profiler_.enabled()) {
      profiler_.record(phase_, start_ns_, now_ns() - start_ns_);
    }
    start_ns_ = 0;
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler& profiler_;
  PhaseId phase_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace sfab::obs
