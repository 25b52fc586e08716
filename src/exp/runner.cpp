#include "exp/runner.hpp"

#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/task_pool.hpp"
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
  static obs::Histogram& sweep_ns =
      obs::Registry::global().histogram("exp.sweep_ns");
  const obs::ScopedPhase sweep_timer(sweep_ns);
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

  // Work units: one unit per grid point. Replicate siblings are adjacent
  // in expansion order (the replicate index is the fastest axis) and
  // differ only by derived seed; a unit runs its uncached members one
  // after another and fires their callbacks together.
  std::vector<std::pair<std::size_t, std::size_t>> units;  // [first, last)
  for (std::size_t first = 0; first < pending.size();) {
    const RunRecord& head = records[pending[first]];
    const std::size_t grid = head.index - head.replicate;
    std::size_t last = first + 1;
    while (last < pending.size()) {
      const RunRecord& next = records[pending[last]];
      if (next.index - next.replicate != grid) break;
      ++last;
    }
    units.emplace_back(first, last);
    first = last;
  }

  std::mutex callback_mutex;
  static obs::Histogram& unit_ns =
      obs::Registry::global().histogram("exp.unit_ns");
  run_task_pool(units.size(), threads_, [&](const auto& claim) {
    for (std::size_t n = 0; claim(n);) {
      const auto [first, last] = units[n];
      const obs::ScopedPhase unit_timer(unit_ns);
      for (std::size_t m = first; m < last; ++m) {
        RunRecord& record = records[pending[m]];
        record.result = engine_ == ReplicateEngine::kScalar
                            ? run_reference_simulation(record.config)
                            : run_simulation(record.config);
      }
      if (on_record_) {
        const std::lock_guard<std::mutex> lock(callback_mutex);
        for (std::size_t m = first; m < last; ++m) {
          on_record_(records[pending[m]]);
        }
      }
    }
  });

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
