#include "dist/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "dist/shard_plan.hpp"
#include "dist/status.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"

namespace sfab::dist {

namespace {

void note(const WorkerOptions& options, const std::string& message) {
  obs::log_info("worker", options.worker_index, ": ", message);
}

void warn(const WorkerOptions& options, const std::string& message) {
  obs::log_warn("worker", options.worker_index, ": ", message);
}

[[nodiscard]] std::size_t csv_field_count() {
  return csv_columns().size();
}

[[nodiscard]] std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Chaos hook (tests/chaos): SFAB_CHAOS_ABORT_RUN=<index> makes this
/// worker die (raw _exit, claim file left behind) the instant it is about
/// to execute that global run — the deterministic per-config crasher the
/// retry budget and quarantine exist for.
[[nodiscard]] long chaos_abort_run() {
  static const long index = [] {
    const char* env = std::getenv("SFAB_CHAOS_ABORT_RUN");
    return env == nullptr ? -1L : std::atol(env);
  }();
  return index;
}

[[nodiscard]] unsigned chaos_slow_run_ms() {
  static const unsigned ms = [] {
    const char* env = std::getenv("SFAB_CHAOS_SLOW_RUN_MS");
    return env == nullptr ? 0U
                          : static_cast<unsigned>(std::atol(env));
  }();
  return ms;
}

[[nodiscard]] std::string single_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// Streams one claimed shard: resume from the committed row prefix, run
/// in split-checking chunks with an ordered-prefix flush per completed
/// run, truncate to the final effective range, and durably commit.
class ShardStream {
 public:
  ShardStream(ShardLedger& ledger, const SweepSpec& spec,
              const ResolvedShard& shard, const WorkerOptions& options,
              WorkerReport& report)
      : ledger_(ledger),
        spec_(spec),
        key_(shard.key),
        begin_(shard.begin),
        eff_end_(shard.end),
        options_(options),
        report_(report),
        rows_(shard.full_end - shard.begin) {}

  void run() {
    resume();
    const long abort_at = chaos_abort_run();

    std::size_t next = begin_ + flushed_;
    while (next < eff_end_) {
      refresh_split();
      if (next >= eff_end_) break;
      std::size_t chunk_end =
          std::min(next + std::max<std::size_t>(options_.chunk_runs, 1),
                   eff_end_);
      bool abort_after = false;
      if (abort_at >= 0 && next <= static_cast<std::size_t>(abort_at) &&
          static_cast<std::size_t>(abort_at) < chunk_end) {
        // Flush everything before the doomed run, then die exactly at it:
        // the committed prefix pins the suspect index precisely.
        chunk_end = static_cast<std::size_t>(abort_at);
        abort_after = true;
      }
      if (chunk_end > next) {
        SweepRunner runner(options_.threads);
        runner.with_cache(ResultCache::from_env())
            .with_on_record([this](const RunRecord& rec) { stage(rec); });
        (void)runner.run_range(spec_, next, chunk_end);
      }
      if (abort_after) ::_exit(70);
      next = begin_ + flushed_;
    }

    // The one-winner marker may have landed while the last chunk ran;
    // honor it now — rows past the final effective end belong to the
    // child shard (identical bytes; recomputation, never divergence).
    refresh_split();
    commit();
  }

 private:
  void resume() {
    const std::vector<std::string> prefix = ledger_.committed_prefix(
        key_, begin_, begin_ + rows_.size(), csv_field_count());
    for (std::size_t i = 0; i < prefix.size(); ++i) rows_[i] = prefix[i];
    flushed_ = prefix.size();
    report_.resumed_rows += flushed_;
    if (flushed_ != 0) {
      note(options_, "resumed shard " + key_ + " from " +
                         std::to_string(flushed_) + " streamed row(s)");
    }
    ledger_.write_progress(key_,
                           ProgressRecord{flushed_, eff_end_ - begin_,
                                          now_ms()});
  }

  void refresh_split() {
    if (const auto split = ledger_.read_split(key_)) {
      eff_end_ = std::min(eff_end_, split->child_begin);
    }
  }

  /// Runner callback (serialized by the runner): stage the row, flush the
  /// newly contiguous prefix to the parts file, refresh progress.
  void stage(const RunRecord& rec) {
    const unsigned delay =
        std::max(options_.run_delay_ms, chaos_slow_run_ms());
    if (delay != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (rec.index < begin_ || rec.index >= begin_ + rows_.size()) return;
    rows_[rec.index - begin_] = csv_row(rec);
    std::vector<std::string> batch;
    std::size_t at = flushed_;
    while (at < rows_.size() && !rows_[at].empty()) {
      batch.push_back(rows_[at]);
      ++at;
    }
    if (batch.empty()) return;
    static const obs::PhaseId stream_phase =
        obs::Profiler::global().phase("dist.stream");
    {
      const obs::ScopedPhase stream_timer(stream_phase);
      ledger_.append_rows(key_, batch);
    }
    flushed_ = at;
    ledger_.write_progress(key_,
                           ProgressRecord{flushed_, eff_end_ - begin_,
                                          now_ms()});
  }

  void commit() {
    const std::size_t size = eff_end_ - begin_;
    std::string csv = csv_header() + '\n';
    for (std::size_t i = 0; i < size; ++i) {
      csv += rows_[i];
      csv += '\n';
    }
    ledger_.commit_fragment(key_, csv);
    ledger_.cleanup_shard(key_);
  }

  ShardLedger& ledger_;
  const SweepSpec& spec_;
  ShardKey key_;
  std::size_t begin_;
  std::size_t eff_end_;
  const WorkerOptions& options_;
  WorkerReport& report_;
  std::mutex mutex_;
  std::vector<std::string> rows_;  ///< staged row texts, "" = not done
  std::size_t flushed_ = 0;        ///< contiguous rows durably appended
};

/// Records a strike against `key`; quarantines it when the retry budget
/// is exhausted. The suspect run is the first index missing from the
/// committed prefix — retries re-execute up to the same failure, so the
/// prefix converges on the crashing run.
void strike_shard(ShardLedger& ledger, const ShardKey& key,
                  std::size_t begin, std::size_t full_end,
                  const WorkerOptions& options, const std::string& worker_id,
                  const std::string& reason, WorkerReport& report) {
  const unsigned strikes = ledger.record_reclaim(key);
  std::size_t eff_end = full_end;
  if (const auto split = ledger.read_split(key)) {
    eff_end = std::min(eff_end, split->child_begin);
  }
  warn(options, "shard " + key + " strike " + std::to_string(strikes) +
                    "/" + std::to_string(options.max_reclaims) + ": " +
                    reason);
  if (strikes < options.max_reclaims) return;

  PoisonRecord poison;
  poison.key = key;
  poison.begin = begin;
  poison.end = eff_end;
  poison.committed =
      ledger.committed_prefix(key, begin, eff_end, csv_field_count()).size();
  poison.suspect = begin + poison.committed;
  poison.reclaims = strikes;
  poison.worker = worker_id;
  poison.reason = single_line(reason);
  if (ledger.quarantine(poison)) {
    warn(options, "quarantined shard " + key + " (suspect run " +
                      std::to_string(poison.suspect) + ")");
    report.poisoned.push_back(poison);
  }
}

/// Straggler steal: among live, unsplit, uncovered claims pick the one
/// with the most unstarted tail and carve off half of it as a child
/// shard. Returns true when a split marker was installed.
bool try_steal(ShardLedger& ledger, const LedgerPlan& plan,
               const WorkerOptions& options, WorkerReport& report) {
  static const obs::PhaseId steal_phase =
      obs::Profiler::global().phase("dist.steal");
  const obs::ScopedPhase steal_timer(steal_phase);
  const ResolvedShard* victim = nullptr;
  std::size_t victim_remaining = 0;
  const std::vector<ResolvedShard> resolved = resolve_shards(ledger, plan);
  for (const ResolvedShard& shard : resolved) {
    if (shard.covered || shard.poison) continue;
    if (shard.end != shard.full_end) continue;  // already split once
    const auto age = ledger.claim_age_s(shard.key);
    if (!age || *age >= ledger.stale_after_s()) continue;  // not live
    const auto progress = ledger.read_progress(shard.key);
    const std::size_t done =
        progress ? std::min(progress->done, shard.size()) : std::size_t{0};
    const std::size_t remaining = shard.size() - done;
    if (remaining > victim_remaining) {
      victim = &shard;
      victim_remaining = remaining;
    }
  }
  if (victim == nullptr || victim_remaining < options.min_steal_runs) {
    return false;
  }

  const std::size_t cut =
      victim->end - victim_remaining + (victim_remaining + 1) / 2;
  SplitRecord split;
  split.parent = victim->key;
  split.child = child_of(victim->key);
  split.child_begin = cut;
  split.child_end = victim->end;
  if (!ledger.create_split(split)) return false;
  note(options, "stole runs " + std::to_string(cut) + ".." +
                    std::to_string(victim->end) + " from shard " +
                    victim->key + " as shard " + split.child);
  ++report.splits;
  return true;
}

}  // namespace

WorkerReport run_worker(const SweepSpec& spec, std::size_t shard_count,
                        const std::string& shard_dir,
                        const WorkerOptions& options) {
  const ShardPlan plan(spec.run_count(), shard_count);
  ShardLedger ledger(shard_dir, options.stale_after_s);
  const LedgerPlan ledger_plan{plan.total_runs(), plan.shard_count(),
                               fingerprint_of(spec)};
  ledger.publish(ledger_plan);

  const std::string worker_id =
      local_worker_id("w" + std::to_string(options.worker_index));
  const auto poll = std::chrono::duration<double>(
      std::min(options.stale_after_s / 4.0, 0.5));
  WorkerReport report;

  for (;;) {
    bool progressed = false;
    bool settled = true;
    const std::vector<ResolvedShard> resolved =
        resolve_shards(ledger, ledger_plan);
    const std::size_t n = resolved.size();
    for (std::size_t k = 0; k < n; ++k) {
      const ResolvedShard& shard = resolved[(k + options.worker_index) % n];
      if (shard.covered || shard.poison) continue;
      settled = false;

      static const obs::PhaseId claim_phase =
          obs::Profiler::global().phase("dist.claim");
      obs::ScopedPhase claim_timer(claim_phase);
      auto claim = ledger.try_claim(shard.key, worker_id);
      if (!claim && ledger.reclaim_if_stale(shard.key)) {
        warn(options, "reclaimed stale shard " + shard.key);
        strike_shard(ledger, shard.key, shard.begin, shard.full_end,
                     options, worker_id, "stale claim reclaimed", report);
        if (ledger.read_poison(shard.key)) continue;
        claim = ledger.try_claim(shard.key, worker_id);
      }
      claim_timer.finish();
      if (!claim) continue;
      // The previous owner may have committed between our coverage check
      // and the claim (commit precedes claim release): nothing to redo.
      if (ledger.fragment_exists(shard.key)) continue;

      note(options, "running shard " + shard.key + " (runs " +
                        std::to_string(shard.begin) + ".." +
                        std::to_string(shard.end) + ")");
      try {
        static const obs::PhaseId shard_phase =
            obs::Profiler::global().phase("dist.shard");
        const obs::ScopedPhase shard_timer(shard_phase);
        ShardStream(ledger, spec, shard, options, report).run();
        ++report.committed;
        progressed = true;
      } catch (const std::exception& error) {
        // Deterministic run failures, chaos ENOSPC, filesystem trouble —
        // all land here. Never rethrow: strike the shard and move on so
        // the retry budget (not this worker's lifetime) decides its fate.
        strike_shard(ledger, shard.key, shard.begin, shard.full_end,
                     options, worker_id, error.what(), report);
      }
      // Work the freshest shard view: a split may have changed the map.
      break;
    }

    if (settled) break;
    if (!progressed) {
      if (!options.steal || !try_steal(ledger, ledger_plan, options, report)) {
        // Remaining shards are claimed by live workers with no stealable
        // tail: wait for them to finish — or go stale, at which point the
        // pass above reclaims.
        std::this_thread::sleep_for(poll);
      }
    }
  }

  report.sweep_quarantined = !ledger.poisoned().empty();
  note(options, "done: committed " + std::to_string(report.committed) +
                    " shard(s)" +
                    (report.sweep_quarantined ? ", sweep has quarantined "
                                                "shard(s)"
                                              : ""));
  return report;
}

}  // namespace sfab::dist
