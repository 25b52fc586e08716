// Thread-pooled sweep execution.
//
// run_simulation is side-effect-free per run, so a sweep is embarrassingly
// parallel: the runner expands the spec once (seeds and all), then N
// threads pull runs off a shared atomic cursor. Because every run's config
// is fully resolved before the first thread starts, the results are
// bit-identical at any thread count — parallelism only reorders execution,
// never inputs.
//
// With a ResultCache attached (exp/cache.hpp), the runner consults the
// cache before dispatch: cached grid points are filled in without running,
// duplicate resolved configs within one sweep execute once, and every
// fresh result is stored for the next sweep. Purity of run_simulation
// guarantees cached rows are bit-identical to re-simulated ones.
//
// A work unit is one grid point: its uncached replicates, which differ
// only by derived seed, run one after another through run_simulation (the
// packet engine, sim/lane_sim.hpp) by default. The expansion has already
// validated every config, and the packet engine covers every config
// validate() accepts bit-identically to the reference engine, so the
// engine choice — like the thread count — never changes a single result
// bit.
#pragma once

#include <functional>
#include <vector>

#include "exp/cache.hpp"
#include "exp/result.hpp"
#include "exp/spec.hpp"
#include "sim/lane_sim.hpp"

namespace sfab {

class SweepRunner {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit SweepRunner(unsigned threads = 0) noexcept;

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Attaches a result cache (not owned; may be nullptr to detach). The
  /// cache is consulted before dispatch and updated after the sweep.
  SweepRunner& with_cache(ResultCache* cache) noexcept {
    cache_ = cache;
    return *this;
  }

  [[nodiscard]] ResultCache* cache() const noexcept { return cache_; }

  /// Selects the engine: kLaned (default) runs every record through
  /// run_simulation, kScalar through run_reference_simulation. Results
  /// are bit-identical either way.
  SweepRunner& with_engine(ReplicateEngine engine) noexcept {
    engine_ = engine;
    return *this;
  }

  [[nodiscard]] ReplicateEngine engine() const noexcept { return engine_; }

  /// Attaches a per-run completion callback, invoked exactly once per
  /// record of the sweep with the record fully populated: cache-satisfied
  /// records fire before dispatch, computed records fire as their work
  /// unit finishes, and in-sweep duplicates (followers) fire after their
  /// leader's result is copied at the end. Calls are serialized (one
  /// mutex), may arrive in any index order, and run on worker threads —
  /// keep the callback cheap. A throwing callback aborts the sweep like a
  /// failed run.
  SweepRunner& with_on_record(
      std::function<void(const RunRecord&)> on_record) {
    on_record_ = std::move(on_record);
    return *this;
  }

  /// Executes every run of `spec` and returns the records in expansion
  /// order. The first exception thrown by any run (e.g. an invalid
  /// architecture/port combination) stops the sweep and is rethrown.
  [[nodiscard]] ResultSet run(const SweepSpec& spec) const;

  /// Executes only runs [begin, end) of `spec`'s expansion — one shard of
  /// a distributed sweep (src/dist). Records keep their global expansion
  /// indices and derived seeds, so concatenating contiguous ranges in
  /// order is bit-identical to run(). Throws std::out_of_range on a range
  /// outside [0, run_count()].
  [[nodiscard]] ResultSet run_range(const SweepSpec& spec, std::size_t begin,
                                    std::size_t end) const;

 private:
  unsigned threads_;
  ResultCache* cache_ = nullptr;
  ReplicateEngine engine_ = ReplicateEngine::kLaned;
  std::function<void(const RunRecord&)> on_record_;
};

/// One-call convenience: SweepRunner{threads}.run(spec), with the
/// process-wide ResultCache::from_env() cache attached when the
/// SFAB_RESULT_CACHE environment variable names a CSV store — that is how
/// the benches share results across processes without any plumbing.
[[nodiscard]] ResultSet run_sweep(const SweepSpec& spec,
                                  unsigned threads = 0);

/// Runs `base` once per load value through the engine and returns the bare
/// results in load order. Paired-sweep semantics: every load point runs
/// with the same derived seed (derive_stream_seed(base.seed, 0)), so the
/// points differ only by offered load, never by sampling.
[[nodiscard]] std::vector<SimResult> sweep_offered_load(
    SimConfig base, const std::vector<double>& loads, unsigned threads = 0);

}  // namespace sfab
