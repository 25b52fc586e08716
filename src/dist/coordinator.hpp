// Local multi-process coordination: spawn shard workers, outlive crashes.
//
// The coordinator fork/execs N copies of a caller-supplied worker command
// line (the CLI and benches re-invoke their own binary with worker flags)
// and waits for them. It deliberately knows nothing about claims or
// heartbeats — crash recovery lives in the workers, who reclaim any shard
// whose owner stopped heartbeating. The coordinator's only recovery duty
// is the total-loss case: if every worker died with the sweep unsettled,
// it backs off (exponentially, capped) and spawns another wave — the
// fresh workers find the stale claims, resume their streamed rows, and
// finish the job — until the wave budget is spent, at which point a
// systematically-crashing worker binary fails fast with a clear message
// instead of fork-looping.
//
// A sweep that settles with quarantined shards is NOT an error here: the
// report carries the poison records so the caller can exit nonzero and
// name the crashing configs.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dist/ledger.hpp"

namespace sfab::dist {

struct CoordinatorOptions {
  unsigned workers = 1;
  /// Extra worker waves to spawn when a wave ends with the sweep
  /// unsettled (i.e. every worker of the wave died mid-sweep).
  unsigned max_respawn_waves = 2;
  /// Exponential backoff between waves: initial delay, doubled per wave,
  /// capped. Zero disables the wait.
  /// (Worker deaths and quarantines go through obs::log at warn level,
  /// respawn notices at info; set SFAB_LOG to filter.)
  double backoff_initial_s = 0.5;
  double backoff_cap_s = 8.0;
};

struct CoordinatorReport {
  unsigned spawned = 0;  ///< worker processes launched across all waves
  unsigned failed = 0;   ///< of those, exited nonzero or died by signal
  unsigned waves = 0;
  /// Every shard is committed (no quarantine gaps).
  bool complete = false;
  /// Quarantined shards in the settled sweep; the caller should exit
  /// nonzero listing the suspect configs.
  std::vector<PoisonRecord> poisoned;
};

class ShardCoordinator {
 public:
  /// `worker_argv(i)` is the full command line (argv[0] included) that
  /// runs worker `i` against `shard_dir`.
  ShardCoordinator(
      std::string shard_dir,
      std::function<std::vector<std::string>(unsigned)> worker_argv);

  /// Spawns options.workers processes and waits for them; respawns up to
  /// options.max_respawn_waves extra waves (with backoff) while the sweep
  /// is unsettled. Returns once every shard is committed or quarantined.
  /// Throws std::runtime_error when the sweep is still unsettled after
  /// the last wave.
  CoordinatorReport run(std::size_t shard_count,
                        const CoordinatorOptions& options);

 private:
  std::string shard_dir_;
  std::function<std::vector<std::string>(unsigned)> worker_argv_;
};

}  // namespace sfab::dist
