// Lossless reassembly of shard fragments into one sweep result.
//
// Shards are contiguous ranges in expansion order and every fragment is a
// complete exp/report CSV (header + its range's rows, doubles in shortest
// round-trip form), so the merge is a stitch: the shared header once, then
// each fragment's rows walked in range order. No value is ever
// reformatted, which is what makes the merged file byte-identical to
// `write_csv` of a single-process run of the same spec — the property CI
// pins with `cmp`.
//
// Quarantined (poison) shards make the merge refuse by default: a merge
// never silently drops a run. With allow_quarantined the merge recovers
// each poisoned shard's streamed row prefix and reports the precise
// missing index range per gap.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dist/ledger.hpp"
#include "exp/result.hpp"

namespace sfab::dist {

struct MergeOptions {
  /// When non-empty, must match the published plan's fingerprint.
  std::string expected_fingerprint;
  /// Merge past quarantined shards, recovering their streamed prefix and
  /// reporting the gap, instead of refusing.
  bool allow_quarantined = false;
  /// Merge past uncommitted shards the same way (partial mid-sweep table
  /// for the --watch view).
  bool allow_incomplete = false;
};

/// One hole in the merged output: rows [missing_begin, missing_end) of
/// shard `key` are absent.
struct ShardGap {
  ShardKey key;
  std::size_t begin = 0;  ///< the shard's run range
  std::size_t end = 0;
  std::size_t committed = 0;  ///< streamed rows recovered into the merge
  std::size_t missing_begin = 0;
  std::size_t missing_end = 0;
  std::optional<PoisonRecord> poison;  ///< set when the gap is a quarantine
};

struct MergeOutput {
  /// The merged CSV; byte-identical to a single-process write_csv when
  /// gaps is empty.
  std::string csv_text;
  /// The same rows parsed back into records (expansion order).
  ResultSet results;
  /// Holes (quarantined / not-yet-committed shards); empty on a complete
  /// merge.
  std::vector<ShardGap> gaps;
  std::size_t total_runs = 0;
};

/// Merges the fragments under `shard_dir`. Validates the ledger plan,
/// every fragment's header and row count against its shard's range.
/// Throws std::runtime_error on any mismatch, on uncommitted shards
/// (unless options.allow_incomplete), and on quarantined shards (unless
/// options.allow_quarantined) — a merge never silently drops or
/// duplicates a run.
[[nodiscard]] MergeOutput merge_shards(const std::string& shard_dir,
                                       const MergeOptions& options);

/// Compatibility shorthand: strict merge with a fingerprint check.
[[nodiscard]] inline MergeOutput merge_shards(
    const std::string& shard_dir,
    const std::string& expected_fingerprint = "") {
  return merge_shards(shard_dir, MergeOptions{expected_fingerprint});
}

}  // namespace sfab::dist
