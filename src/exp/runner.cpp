#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/profiler.hpp"

namespace sfab {

namespace {

[[nodiscard]] unsigned default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

SweepRunner::SweepRunner(unsigned threads) noexcept
    : threads_(threads == 0 ? default_threads() : threads) {}

ResultSet SweepRunner::run(const SweepSpec& spec) const {
  return run_range(spec, 0, spec.run_count());
}

ResultSet SweepRunner::run_range(const SweepSpec& spec, std::size_t begin,
                                 std::size_t end) const {
  static const obs::PhaseId sweep_phase =
      obs::Profiler::global().phase("exp.sweep");
  const obs::ScopedPhase sweep_timer(sweep_phase);
  std::vector<RunPlan> plans = spec.expand();
  if (begin > end || end > plans.size()) {
    throw std::out_of_range("SweepRunner::run_range: bad range");
  }

  std::vector<RunRecord> records(end - begin);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].index = plans[begin + i].index;
    records[i].replicate = plans[begin + i].replicate;
    records[i].config = std::move(plans[begin + i].config);
  }

  // With a cache attached: satisfy records from the cache, and collapse
  // duplicate resolved configs within this sweep onto one leader run each.
  // `pending` is the list of record indices that actually simulate.
  std::vector<std::size_t> pending;
  std::vector<std::string> keys;
  std::vector<std::pair<std::size_t, std::size_t>> followers;  // copy to,from
  if (cache_ != nullptr) {
    keys.resize(records.size());
    std::unordered_map<std::string, std::size_t> leader_of;
    for (std::size_t i = 0; i < records.size(); ++i) {
      keys[i] = ResultCache::key_of(records[i].config);
      if (const auto cached = cache_->lookup_key(keys[i])) {
        records[i].result = *cached;
        if (on_record_) on_record_(records[i]);
        continue;
      }
      const auto [it, inserted] = leader_of.emplace(keys[i], i);
      if (inserted) {
        pending.push_back(i);
      } else {
        followers.emplace_back(i, it->second);
      }
    }
  } else {
    pending.resize(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) pending[i] = i;
  }

  // Work units: under kLaned, one unit per grid point — replicate siblings
  // are adjacent in expansion order (the replicate index is the fastest
  // axis) and differ only by derived seed, so a unit's uncached members run
  // as lanes of one lane-engine pass (a lone member as a 1-lane pass).
  // Under kScalar every record is its own unit on the reference engine.
  std::vector<std::pair<std::size_t, std::size_t>> units;  // [first, last)
  for (std::size_t first = 0; first < pending.size();) {
    std::size_t last = first + 1;
    if (engine_ == ReplicateEngine::kLaned) {
      const RunRecord& head = records[pending[first]];
      const std::size_t grid = head.index - head.replicate;
      while (last < pending.size()) {
        const RunRecord& next = records[pending[last]];
        if (next.index - next.replicate != grid) break;
        ++last;
      }
    }
    units.emplace_back(first, last);
    first = last;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::mutex callback_mutex;

  static const obs::PhaseId unit_phase =
      obs::Profiler::global().phase("exp.unit");
  const auto worker = [&]() noexcept {
    for (;;) {
      const std::size_t n =
          cursor.fetch_add(1, std::memory_order_relaxed);
      if (n >= units.size() || failed.load(std::memory_order_relaxed)) {
        return;
      }
      const auto [first, last] = units[n];
      const obs::ScopedPhase unit_timer(unit_phase);
      try {
        if (engine_ == ReplicateEngine::kScalar) {
          const std::size_t i = pending[first];
          records[i].result = run_reference_simulation(records[i].config);
        } else {
          std::vector<std::uint64_t> seeds(last - first);
          for (std::size_t m = first; m < last; ++m) {
            seeds[m - first] = records[pending[m]].config.seed;
          }
          const std::vector<SimResult> batch =
              run_lane_simulations(records[pending[first]].config, seeds);
          for (std::size_t m = first; m < last; ++m) {
            records[pending[m]].result = batch[m - first];
          }
        }
        if (on_record_) {
          const std::lock_guard<std::mutex> lock(callback_mutex);
          for (std::size_t m = first; m < last; ++m) {
            on_record_(records[pending[m]]);
          }
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t pool =
      std::min<std::size_t>(threads_, units.size());
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
  }

  if (first_error) std::rethrow_exception(first_error);

  if (cache_ != nullptr) {
    for (const std::size_t i : pending) {
      cache_->store_key(keys[i], records[i].result);
    }
    for (const auto& [to, from] : followers) {
      records[to].result = records[from].result;
      if (on_record_) on_record_(records[to]);
    }
  }
  return ResultSet(std::move(records));
}

ResultSet run_sweep(const SweepSpec& spec, unsigned threads) {
  return SweepRunner(threads).with_cache(ResultCache::from_env()).run(spec);
}

ResultSet run_shard(const SweepSpec& spec, std::size_t begin, std::size_t end,
                    unsigned threads) {
  return SweepRunner(threads)
      .with_cache(ResultCache::from_env())
      .run_range(spec, begin, end);
}

std::vector<SimResult> sweep_offered_load(SimConfig base,
                                          const std::vector<double>& loads,
                                          unsigned threads) {
  SweepSpec spec;
  spec.base = std::move(base);
  spec.loads = loads;
  const ResultSet results = run_sweep(spec, threads);
  std::vector<SimResult> bare;
  bare.reserve(results.size());
  for (const RunRecord& rec : results) bare.push_back(rec.result);
  return bare;
}

}  // namespace sfab
