// Deterministic partition of a sweep's run-index space into shards.
//
// A SweepSpec's expansion order is stable and fully resolved before any
// run executes (exp/spec.hpp), so the only thing shard workers must agree
// on is how the index space [0, run_count) splits. ShardPlan is that
// agreement: contiguous ranges in expansion order, sized as evenly as
// possible (the first run_count % shard_count shards take one extra run),
// derived from nothing but (total_runs, shard_count). Contiguity matters
// twice over — a shard is one `SweepRunner::run_range` call, and merging
// fragments in shard order reproduces expansion order, which is what makes
// the merged CSV byte-identical to a single-process sweep.
//
// fingerprint_of(spec) condenses the whole expansion — every resolved
// config, via ResultCache::key_of — into one 16-hex token that the ledger
// stores next to the shard count, so hand-launched workers on other hosts
// fail loudly when their flags disagree instead of merging mismatched
// fragments.
#pragma once

#include <cstddef>
#include <string>

#include "exp/spec.hpp"

namespace sfab::dist {

/// Half-open run-index range [begin, end) of one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return begin == end; }
};

class ShardPlan {
 public:
  /// Partitions [0, total_runs) into min(shard_count, total_runs) shards
  /// (every shard non-empty). Throws std::invalid_argument when either
  /// count is zero.
  ShardPlan(std::size_t total_runs, std::size_t shard_count);

  [[nodiscard]] std::size_t total_runs() const noexcept { return total_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }

  /// Range of shard `shard`; throws std::out_of_range past shard_count().
  [[nodiscard]] ShardRange range_of(std::size_t shard) const;

 private:
  std::size_t total_;
  std::size_t shards_;
};

/// Shard count the CLI/bench coordinator uses for `workers` worker
/// processes: a few claimable shards per worker (finer grains re-balance a
/// ragged grid, let fast workers absorb a straggler's share, and shrink
/// what a crashed worker forfeits), never more than there are runs.
[[nodiscard]] std::size_t default_shard_count(std::size_t total_runs,
                                              unsigned workers);

/// 16-hex FNV-1a fingerprint over the spec's full expansion (run count,
/// indices, replicates, and every resolved config via ResultCache::key_of).
/// Two processes compute equal fingerprints iff they would run the same
/// sweep.
[[nodiscard]] std::string fingerprint_of(const SweepSpec& spec);

}  // namespace sfab::dist
