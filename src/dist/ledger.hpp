// File-backed shard ledger: the shared state of a distributed sweep.
//
// Any number of worker processes — spawned locally by ShardCoordinator or
// launched by hand on other hosts — coordinate through nothing but a
// shared directory and three filesystem primitives that are atomic on
// POSIX filesystems (local and NFSv3+ alike): O_CREAT|O_EXCL create,
// link(2), and rename(2).
//
//   shard-dir/
//     plan            sweep contract: run count, shard count, fingerprint
//                     (installed via temp + link(2) — first publisher
//                     wins; every worker publishes identical content and
//                     verifies what it reads back)
//     claims/shard-<key>.claim
//                     exclusive work claim, created with O_CREAT|O_EXCL —
//                     exactly one creator wins. The owner refreshes the
//                     file's mtime (heartbeat thread) while it simulates;
//                     a claim whose mtime falls more than stale_after
//                     behind is an abandoned shard, and any worker may
//                     break it (atomic rename to a tombstone — only one
//                     renamer wins — then unlink and re-claim).
//     frags/shard-<key>.csv
//                     the shard's finished CSV fragment, committed with
//                     write-temp + fsync + atomic rename (and a directory
//                     fsync), so neither a crash nor a host power loss can
//                     leave a complete-looking partial fragment. Fragment
//                     existence IS the completion record.
//     parts/shard-<key>.rows
//                     the shard's *streamed* rows: the owner appends each
//                     completed run's CSV row (in run order) with an
//                     exclusive flock and a single write(2), so concurrent
//                     writers never interleave partial rows. A crashed
//                     owner's successor resumes from this committed prefix
//                     instead of recomputing the range.
//     progress/shard-<key>.prog
//                     advisory per-shard progress record (runs done /
//                     total, writer timestamp) rewritten via temp+rename.
//                     Drives the --watch view.
//     retries/shard-<key>.r<N>
//                     one O_EXCL marker per failed attempt (stale-claim
//                     reclaim or in-worker shard failure). The count is a
//                     monotone, race-free retry budget shared by every
//                     worker.
//     poison/shard-<key>.poison
//                     quarantine record (one-winner install): the shard
//                     exhausted its retry budget. Carries the committed
//                     prefix and the first missing (suspect) run index so
//                     the crashing config can be named. Workers skip
//                     quarantined shards; merge_shards refuses them unless
//                     explicitly allowed to report the gap.
//
// The protocol is crash-safe by construction: a worker killed before
// commit leaves a claim file that stops heartbeating (reclaimed after
// stale_after) plus a durable row prefix its successor resumes from; a
// worker killed mid-commit leaves a temp file the winning committer's
// rename simply ignores.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace sfab::dist {

/// Shard identity: shard k of the plan is "k".
using ShardKey = std::string;

[[nodiscard]] inline ShardKey shard_key(std::size_t shard) {
  return std::to_string(shard);
}

/// The sweep contract stored in shard-dir/plan.
struct LedgerPlan {
  std::size_t total_runs = 0;
  std::size_t shard_count = 0;
  std::string fingerprint;  ///< dist::fingerprint_of(spec)
};

/// Advisory streaming-progress record for one shard.
struct ProgressRecord {
  std::size_t done = 0;   ///< rows durably streamed, counted from begin
  std::size_t total = 0;  ///< shard size
  std::int64_t stamp_ms = 0;  ///< writer's wall clock, ms since epoch
};

/// Quarantine record for a shard that exhausted its retry budget.
struct PoisonRecord {
  ShardKey key;
  std::size_t begin = 0;      ///< the shard's run range
  std::size_t end = 0;
  std::size_t committed = 0;  ///< rows durably streamed before poisoning
  std::size_t suspect = 0;    ///< first missing run index (begin+committed)
  unsigned reclaims = 0;      ///< retry strikes when quarantined
  std::string worker;         ///< who quarantined it
  std::string reason;         ///< last failure note, single line
};

class ShardLedger {
 public:
  /// Opens (creating if needed) the ledger rooted at `dir`. `stale_after_s`
  /// is how long a claim may go without a heartbeat before any worker may
  /// break it (finite and > 0, else std::invalid_argument); heartbeats
  /// fire every stale_after_s / 4. Opening also
  /// sweeps tombstones orphaned by a worker that crashed between the
  /// reclaim rename and the unlink.
  explicit ShardLedger(std::string dir, double stale_after_s = 30.0);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] double stale_after_s() const noexcept { return stale_s_; }

  /// Publishes `plan` (temp + link, first publisher wins) unless an
  /// identical plan is already there; throws std::runtime_error when the
  /// directory holds a *different* plan — mismatched workers must fail,
  /// not corrupt.
  void publish(const LedgerPlan& plan);
  /// Reads shard-dir/plan; throws std::runtime_error when absent/garbled.
  [[nodiscard]] LedgerPlan plan() const;

  // --- claims ---------------------------------------------------------------

  /// Movable RAII claim: heartbeats the claim file's mtime on a background
  /// thread until released. release() (or destruction) stops the heartbeat
  /// and unlinks the claim file; a worker that dies instead simply stops
  /// heartbeating, which is what makes the shard reclaimable.
  class Claim {
   public:
    Claim(Claim&&) noexcept;
    Claim& operator=(Claim&&) noexcept;
    ~Claim();
    void release() noexcept;

   private:
    friend class ShardLedger;
    struct Beat;
    Claim(std::string path, double interval_s);
    std::unique_ptr<Beat> beat_;
  };

  /// O_EXCL-creates the claim file for `key` recording `worker_id`;
  /// nullopt when another live worker holds it (or just won the race).
  [[nodiscard]] std::optional<Claim> try_claim(const ShardKey& key,
                                               const std::string& worker_id);

  /// Breaks the claim on `key` iff its heartbeat is older than
  /// stale_after; returns true when a stale claim was removed (the caller
  /// should record the reclaim and retry try_claim). Safe to race: the
  /// tombstone rename has exactly one winner, a vanished file means
  /// someone else got there, and the tombstone is unlinked after the win
  /// (orphans from a crash inside this window are swept at open).
  bool reclaim_if_stale(const ShardKey& key) noexcept;

  /// Seconds since the claim's last heartbeat; nullopt when unclaimed.
  [[nodiscard]] std::optional<double> claim_age_s(const ShardKey& key) const;

  // --- fragments ------------------------------------------------------------

  [[nodiscard]] std::string fragment_path(const ShardKey& key) const;
  [[nodiscard]] bool fragment_exists(const ShardKey& key) const;

  /// Durably installs `csv_text` as the shard's fragment: write temp,
  /// fsync the file, atomic rename, fsync the directory — a host power
  /// loss can never leave a complete-looking truncated fragment.
  /// Idempotent: a re-run of an already-committed shard re-installs
  /// identical bytes.
  void commit_fragment(const ShardKey& key, const std::string& csv_text);
  /// Whole fragment text; throws std::runtime_error when absent.
  [[nodiscard]] std::string read_fragment(const ShardKey& key) const;

  // --- incremental result streaming -----------------------------------------

  /// Appends `rows` (CSV rows, no trailing newline each) to the shard's
  /// streamed-rows file: one exclusive flock, one write(2) — concurrent
  /// writers (a reclaimed shard's zombie and its successor) never
  /// interleave partial rows.
  void append_rows(const ShardKey& key, const std::vector<std::string>& rows);

  /// The longest committed prefix of the shard's streamed rows, in run
  /// order starting at `begin`: lines are parsed for their leading run
  /// index, duplicates (zombie re-appends) keep the first occurrence, and
  /// rows whose field count differs from `expected_fields` (when nonzero)
  /// are dropped as torn. Returns the row texts for begin, begin+1, ...
  /// up to the first missing index (or `end`).
  [[nodiscard]] std::vector<std::string> committed_prefix(
      const ShardKey& key, std::size_t begin, std::size_t end,
      std::size_t expected_fields = 0) const;

  /// Rewrites the shard's advisory progress record (temp + rename).
  void write_progress(const ShardKey& key, const ProgressRecord& progress);
  [[nodiscard]] std::optional<ProgressRecord> read_progress(
      const ShardKey& key) const;

  /// Removes the shard's streamed rows and progress record — called after
  /// the fragment commit makes them redundant.
  void cleanup_shard(const ShardKey& key) noexcept;

  // --- retry budget + quarantine --------------------------------------------

  /// Number of failure strikes recorded against the shard so far.
  [[nodiscard]] unsigned reclaim_count(const ShardKey& key) const;
  /// Records one more strike (O_EXCL marker; races resolve to distinct
  /// counts) and returns the new total.
  unsigned record_reclaim(const ShardKey& key);

  /// Installs the quarantine record (one winner). Returns false when the
  /// shard is already quarantined.
  bool quarantine(const PoisonRecord& record);
  [[nodiscard]] std::optional<PoisonRecord> read_poison(
      const ShardKey& key) const;
  [[nodiscard]] std::vector<PoisonRecord> poisoned() const;

  // --- std::size_t conveniences ---------------------------------------------

  [[nodiscard]] std::optional<Claim> try_claim(std::size_t shard,
                                               const std::string& worker_id) {
    return try_claim(shard_key(shard), worker_id);
  }
  bool reclaim_if_stale(std::size_t shard) noexcept {
    return reclaim_if_stale(shard_key(shard));
  }
  [[nodiscard]] std::string fragment_path(std::size_t shard) const {
    return fragment_path(shard_key(shard));
  }
  [[nodiscard]] bool fragment_exists(std::size_t shard) const {
    return fragment_exists(shard_key(shard));
  }
  void commit_fragment(std::size_t shard, const std::string& csv_text) {
    commit_fragment(shard_key(shard), csv_text);
  }
  [[nodiscard]] std::string read_fragment(std::size_t shard) const {
    return read_fragment(shard_key(shard));
  }

 private:
  [[nodiscard]] std::string claim_path(const ShardKey& key) const;

  std::string dir_;
  double stale_s_;
};

/// Identity string recorded inside claim files: host:pid[:tag].
[[nodiscard]] std::string local_worker_id(const std::string& tag = "");

}  // namespace sfab::dist
