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
/// the rest as one run_range call with an ordered-prefix flush per
/// completed run, and durably commit.
class ShardStream {
 public:
  ShardStream(ShardLedger& ledger, const SweepSpec& spec,
              const ResolvedShard& shard, const WorkerOptions& options,
              WorkerReport& report)
      : ledger_(ledger),
        spec_(spec),
        key_(shard.key),
        begin_(shard.begin),
        options_(options),
        report_(report),
        rows_(shard.size()) {}

  void run() {
    resume();
    const std::size_t next = begin_ + flushed_;
    std::size_t end = begin_ + rows_.size();
    const long abort_at = chaos_abort_run();
    const bool abort = abort_at >= 0 &&
                       next <= static_cast<std::size_t>(abort_at) &&
                       static_cast<std::size_t>(abort_at) < end;
    // Flush everything before the doomed run, then die exactly at it: the
    // committed prefix pins the suspect index precisely.
    if (abort) end = static_cast<std::size_t>(abort_at);
    if (next < end) {
      SweepRunner runner(options_.threads);
      runner.with_cache(ResultCache::from_env())
          .with_on_record([this](const RunRecord& rec) { stage(rec); });
      (void)runner.run_range(spec_, next, end);
    }
    if (abort) ::_exit(70);
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
  }

  /// Runner callback (serialized by the runner): stage the row, flush the
  /// newly contiguous prefix to the parts file.
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
    static obs::Histogram& stream_ns =
        obs::Registry::global().histogram("dist.stream_ns");
    {
      const obs::ScopedPhase stream_timer(stream_ns);
      ledger_.append_rows(key_, batch);
    }
    flushed_ = at;
  }

  void commit() {
    std::string csv = csv_header() + '\n';
    for (const std::string& row : rows_) {
      csv += row;
      csv += '\n';
    }
    ledger_.commit_fragment(key_, csv);
    ledger_.cleanup_shard(key_);
  }

  ShardLedger& ledger_;
  const SweepSpec& spec_;
  ShardKey key_;
  std::size_t begin_;
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
void strike_shard(ShardLedger& ledger, const ResolvedShard& shard,
                  const WorkerOptions& options, const std::string& worker_id,
                  const std::string& reason, WorkerReport& report) {
  const ShardKey& key = shard.key;
  const unsigned strikes = ledger.record_reclaim(key);
  warn(options, "shard " + key + " strike " + std::to_string(strikes) +
                    "/" + std::to_string(options.max_reclaims) + ": " +
                    reason);
  if (strikes < options.max_reclaims) return;

  PoisonRecord poison;
  poison.key = key;
  poison.begin = shard.begin;
  poison.end = shard.end;
  poison.committed = ledger
                         .committed_prefix(key, shard.begin, shard.end,
                                           csv_field_count())
                         .size();
  poison.suspect = shard.begin + poison.committed;
  poison.reclaims = strikes;
  poison.worker = worker_id;
  poison.reason = single_line(reason);
  if (ledger.quarantine(poison)) {
    warn(options, "quarantined shard " + key + " (suspect run " +
                      std::to_string(poison.suspect) + ")");
    report.poisoned.push_back(poison);
  }
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
  // An idle worker re-reads the ledger this often. Keep it short: the
  // sweep settles when its last shard commits, and a coarse poll keeps
  // finished workers (and the coordinator waiting on them) up to one
  // interval longer.
  const auto poll = std::chrono::duration<double>(
      std::min(options.stale_after_s / 4.0, 0.05));
  WorkerReport report;

  for (;;) {
    bool progressed = false;
    bool settled = true;
    const std::vector<ResolvedShard> resolved =
        resolve_shards(ledger, ledger_plan);
    const std::size_t n = resolved.size();
    for (std::size_t k = 0; k < n; ++k) {
      // Walk the plan from its end: sweeps list axis values in rising
      // order, so the last shards tend to hold the longest runs. Taking
      // them first leaves the short shards to even out the finish.
      const ResolvedShard& shard =
          resolved[n - 1 - (k + options.worker_index) % n];
      if (shard.committed || shard.poison) continue;
      settled = false;

      static obs::Histogram& claim_ns =
          obs::Registry::global().histogram("dist.claim_ns");
      obs::ScopedPhase claim_timer(claim_ns);
      auto claim = ledger.try_claim(shard.key, worker_id);
      if (!claim && ledger.reclaim_if_stale(shard.key)) {
        warn(options, "reclaimed stale shard " + shard.key);
        strike_shard(ledger, shard, options, worker_id,
                     "stale claim reclaimed", report);
        if (ledger.read_poison(shard.key)) continue;
        claim = ledger.try_claim(shard.key, worker_id);
      }
      claim_timer.finish();
      if (!claim) continue;
      // The previous owner may have committed between our commit check
      // and the claim (commit precedes claim release): nothing to redo.
      if (ledger.fragment_exists(shard.key)) continue;

      note(options, "running shard " + shard.key + " (runs " +
                        std::to_string(shard.begin) + ".." +
                        std::to_string(shard.end) + ")");
      try {
        static obs::Histogram& shard_ns =
            obs::Registry::global().histogram("dist.shard_ns");
        const obs::ScopedPhase shard_timer(shard_ns);
        ShardStream(ledger, spec, shard, options, report).run();
        ++report.committed;
        progressed = true;
      } catch (const std::exception& error) {
        // Deterministic run failures, chaos ENOSPC, filesystem trouble —
        // all land here. Never rethrow: strike the shard and move on so
        // the retry budget (not this worker's lifetime) decides its fate.
        strike_shard(ledger, shard, options, worker_id, error.what(),
                     report);
      }
      // Work the freshest shard view: other workers commit and quarantine
      // while this shard runs.
      break;
    }

    if (settled) break;
    if (!progressed) {
      // Remaining shards are claimed by live workers: wait for them to
      // finish — or go stale, at which point the pass above reclaims.
      std::this_thread::sleep_for(poll);
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
