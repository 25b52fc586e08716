// Spans, clocks and the engine-call reconstruction of a traced batch.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each layer: name, start, end, parent span and operation id.
// They stay in memory and are written out when the benchmark ends.
//
// The runner's engine calls happen on its worker threads, out of the
// benchmark's reach, so UnitRecorder rebuilds them from the runner's public
// per-record completion callback: a worker fires the callbacks of one work
// unit back to back right after the unit's run_simulation /
// run_lane_simulations call returns, then fetches its next unit. The time
// between a thread's consecutive units' callbacks is therefore one engine
// call plus a cursor fetch. A thread's first unit is taken to start when
// dispatch began (after the runner's cache pre-pass), so it also carries
// the runner's sub-millisecond pre-dispatch work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "exp/result.hpp"

namespace perfbench {

/// Steady-clock seconds. CLOCK_MONOTONIC on Linux, so worker processes'
/// stamps compare with the coordinator's.
[[nodiscard]] double now_s() noexcept;

/// User + sys CPU seconds of this process (all threads).
[[nodiscard]] double self_cpu_s() noexcept;
/// User + sys CPU seconds of this process's reaped children.
[[nodiscard]] double children_cpu_s() noexcept;

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;     ///< index into the tracer's spans; -1 = root
  long long op = -1;   ///< operation id within the batch; -1 = none
};

class Tracer {
 public:
  /// Opens a span now; returns its id.
  int open(std::string name, int parent = -1, long long op = -1);
  void close(int id);
  /// Adds a finished span.
  int add(std::string name, double start, double end, int parent = -1,
          long long op = -1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] double duration(int id) const;
  /// Duration minus the part of the span that its children cover.
  [[nodiscard]] double self_time(int id) const;

  /// {"spans": [{"name", "start", "end", "self", "parent", "op"}, ...]},
  /// times in seconds relative to the first span's start.
  void write_json(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

/// One engine call of a sweep.
struct UnitSample {
  bool lane = false;  ///< run_lane_simulations (else run_simulation)
  sfab::Architecture arch{};
  double seconds = 0.0;
  double port_cycles = 0.0;  ///< simulated ports x cycles, all lanes
};

/// Rebuilds a sweep's engine calls from SweepRunner's on_record callback.
class UnitRecorder {
 public:
  /// The callback to hand to SweepRunner::with_on_record.
  [[nodiscard]] std::function<void(const sfab::RunRecord&)> callback();

  /// Call right before SweepRunner::run.
  void begin(double start) noexcept { start_ = start; }

  /// Turns the recorded callbacks of `results` into engine calls, added as
  /// "sim.scalar" / "sim.lane" spans under `parent`. `stored_keys` (null
  /// without a result store) holds the keys already in the store: their
  /// records were cache hits, and the keys of this sweep are added to it.
  [[nodiscard]] std::vector<UnitSample> finish(
      const sfab::ResultSet& results,
      std::unordered_set<std::string>* stored_keys, Tracer& tracer,
      int parent, std::size_t op_offset);

 private:
  struct Event {
    std::thread::id thread;
    double time = 0.0;
    std::size_t index = 0;
  };
  std::mutex mutex_;
  std::vector<Event> events_;
  double start_ = 0.0;
};

/// Median of `values` (0 for none).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `pct` (0..100] of `values` (0 for none).
[[nodiscard]] double percentile(std::vector<double> values, double pct);

/// The highest whole percentile with at least `beyond` samples above it
/// among `count` samples (50 when there are too few samples).
[[nodiscard]] double tail_percentile(std::size_t count,
                                     std::size_t beyond = 10) noexcept;

}  // namespace perfbench
