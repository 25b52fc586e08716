// The live state of a sweep, read from the ledger.
//
// resolve_shards lists the plan's shards in run order with their ranges,
// commit state and quarantine record — the single source of truth the
// worker loop, the coordinator's completion check, merge_shards' stitcher
// and the --watch view all share.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dist/ledger.hpp"

namespace sfab::dist {

/// One shard of the plan with its ledger state.
struct ResolvedShard {
  ShardKey key;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool committed = false;  ///< the shard's fragment exists
  std::optional<PoisonRecord> poison;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// Every shard of `plan`, sorted by begin, tiling [0, plan.total_runs).
[[nodiscard]] std::vector<ResolvedShard> resolve_shards(
    const ShardLedger& ledger, const LedgerPlan& plan);

enum class ShardState { kPending, kRunning, kStale, kDone, kPoisoned };

[[nodiscard]] const char* to_string(ShardState state) noexcept;

/// ResolvedShard plus live observability for the --watch view.
struct ShardStatus {
  ResolvedShard shard;
  ShardState state = ShardState::kPending;
  std::size_t done = 0;  ///< rows durably streamed (== size() when committed)
  std::optional<double> claim_age_s;
};

struct SweepStatus {
  LedgerPlan plan;
  std::vector<ShardStatus> shards;
  std::size_t runs_done = 0;
  /// Every shard is committed: merge-ready with no gaps.
  bool complete = false;
  /// No work remains: every shard is committed or quarantined.
  bool settled = false;
  std::vector<PoisonRecord> quarantined;
};

/// Snapshot of the sweep's live state (requires a published plan; throws
/// while the plan file is still absent).
[[nodiscard]] SweepStatus sweep_status(const ShardLedger& ledger);

/// Renders per-shard progress bars plus a totals line — the --watch frame.
void render_status(std::ostream& out, const SweepStatus& status);

}  // namespace sfab::dist
