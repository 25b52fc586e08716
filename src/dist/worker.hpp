// Shard worker: claim, stream, commit — until the sweep settles.
//
// A worker is driven by nothing but the spec (so it can resolve the run
// list itself) and the shared ledger directory. It walks the plan's
// shards backwards from the last, offset by its own index (axis values
// usually rise, so the longest shards start first and the short ones even
// out the finish), claims whatever is unclaimed, and runs each claimed
// shard as one SweepRunner::run_range call, streaming every completed
// run's CSV row to the shard's parts file (in contiguous run order), so a
// crashed owner's successor resumes from the last committed row instead
// of recomputing, and a live --watch view can count the rows mid-flight.
//
// Stragglers are balanced by over-decomposition: with several shards per
// worker (default_shard_count), a fast worker keeps claiming while a slow
// one finishes its current shard. Every failure — stale-claim reclaim,
// in-run exception, failed commit — records a retry strike against the
// shard; at max_reclaims strikes the shard is quarantined to a poison
// record naming the first missing (suspect) run, and workers skip it. A
// sweep therefore settles (every shard committed or quarantined) as long
// as ONE worker survives, with no operator intervention.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dist/ledger.hpp"
#include "exp/spec.hpp"

namespace sfab::dist {

struct WorkerOptions {
  /// Simulation threads per worker (0 = all cores; local coordinators
  /// usually want cores / workers).
  unsigned threads = 0;
  /// Claim-staleness threshold handed to the ledger.
  double stale_after_s = 30.0;
  /// This worker's index: claim attribution and starting shard offset.
  /// Progress goes through obs::log (component "worker", level info;
  /// strikes and quarantines at warn) — set SFAB_LOG to filter.
  unsigned worker_index = 0;
  /// Retry budget: strikes before a shard is quarantined as poisoned.
  unsigned max_reclaims = 3;
  /// Test hook: sleep this long after each completed run (straggler
  /// simulation). SFAB_CHAOS_SLOW_RUN_MS sets the same knob by env.
  unsigned run_delay_ms = 0;
};

struct WorkerReport {
  std::size_t committed = 0;     ///< shards this worker committed
  std::size_t resumed_rows = 0;  ///< rows recovered from predecessors' streams
  /// Shards THIS worker quarantined (won the poison install).
  std::vector<PoisonRecord> poisoned;
  /// Final sweep state holds any quarantined shard (by any worker) — the
  /// caller should exit nonzero and name the poisoned configs.
  bool sweep_quarantined = false;
};

/// Publishes the plan for `spec` split into (at most) `shard_count` shards
/// and works the ledger at `shard_dir` until the sweep settles: every
/// shard committed or quarantined. Throws when the directory
/// holds a different sweep's plan.
WorkerReport run_worker(const SweepSpec& spec, std::size_t shard_count,
                        const std::string& shard_dir,
                        const WorkerOptions& options = {});

}  // namespace sfab::dist
