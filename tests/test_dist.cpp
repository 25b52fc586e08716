// Tests for the distributed sweep subsystem (src/dist): exact-cover shard
// plans, the crash-safe claim/heartbeat ledger, multi-worker sweeps that
// merge bit-identical to a single-process run, and reclaim of a dead
// worker's shard. Workers here are threads, not processes — the ledger
// coordinates through O_EXCL files and atomic renames, which exclude
// concurrent claimants within one process exactly as they do across
// processes (and across hosts on a shared filesystem); the CI workflow
// additionally runs the real 3-process + SIGKILL scenario through
// sfab_cli.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/ledger.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/status.hpp"
#include "dist/worker.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "obs/log.hpp"

namespace sfab {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test ledger directory under the system temp dir.
class DistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("sfab-dist-test-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()
                     ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

/// Small but non-trivial sweep: 12 runs over two axes plus replicates.
SweepSpec quick_spec() {
  SweepSpec spec;
  spec.base.ports = 4;
  spec.base.warmup_cycles = 200;
  spec.base.measure_cycles = 1'000;
  spec.base.seed = 7;
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_loads({0.2, 0.5, 0.8})
      .with_replicates(2);
  return spec;
}

// --- ShardPlan ---------------------------------------------------------------

TEST(ShardPlan, CoversEveryIndexExactlyOnceForRaggedSizes) {
  // Ragged combinations: totals not divisible by counts, counts exceeding
  // totals (clamped), and degenerate single-shard/single-run cases.
  const std::size_t totals[] = {1, 2, 3, 5, 7, 12, 97, 100};
  const std::size_t counts[] = {1, 2, 3, 4, 5, 8, 13, 200};
  for (const std::size_t total : totals) {
    for (const std::size_t count : counts) {
      SCOPED_TRACE(std::to_string(total) + " runs / " +
                   std::to_string(count) + " shards");
      const dist::ShardPlan plan(total, count);
      EXPECT_EQ(plan.total_runs(), total);
      EXPECT_LE(plan.shard_count(), std::min(total, count));
      std::vector<int> covered(total, 0);
      std::size_t min_size = total, max_size = 0;
      std::size_t expected_begin = 0;
      for (std::size_t s = 0; s < plan.shard_count(); ++s) {
        const dist::ShardRange range = plan.range_of(s);
        EXPECT_EQ(range.begin, expected_begin) << "shards must be contiguous";
        EXPECT_FALSE(range.empty());
        expected_begin = range.end;
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
        for (std::size_t i = range.begin; i < range.end; ++i) ++covered[i];
      }
      EXPECT_EQ(expected_begin, total) << "last shard must end at total";
      for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(covered[i], 1) << i;
      EXPECT_LE(max_size - min_size, 1u) << "shards must be balanced";
    }
  }
  EXPECT_THROW(dist::ShardPlan(0, 3), std::invalid_argument);
  EXPECT_THROW(dist::ShardPlan(3, 0), std::invalid_argument);
  EXPECT_THROW((void)dist::ShardPlan(4, 2).range_of(2), std::out_of_range);
}

TEST(ShardPlan, FingerprintTracksEveryAxisChange) {
  const SweepSpec spec = quick_spec();
  const std::string fp = dist::fingerprint_of(spec);
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, dist::fingerprint_of(spec)) << "must be deterministic";

  SweepSpec other = spec;
  other.base.seed = 8;
  EXPECT_NE(fp, dist::fingerprint_of(other));
  other = spec;
  other.loads.push_back(0.9);
  EXPECT_NE(fp, dist::fingerprint_of(other));
  other = spec;
  other.replicates = 3;
  EXPECT_NE(fp, dist::fingerprint_of(other));
}

// --- SweepRunner::run_range --------------------------------------------------

TEST(RunRange, ShardsConcatenateToTheFullSweep) {
  const SweepSpec spec = quick_spec();
  const ResultSet full = SweepRunner(1).run(spec);
  const dist::ShardPlan plan(spec.run_count(), 5);

  std::vector<RunRecord> stitched;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const dist::ShardRange range = plan.range_of(s);
    const ResultSet part =
        SweepRunner(2).run_range(spec, range.begin, range.end);
    ASSERT_EQ(part.size(), range.size());
    for (const RunRecord& rec : part) stitched.push_back(rec);
  }

  ASSERT_EQ(stitched.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(stitched[i].index, full[i].index);
    EXPECT_EQ(stitched[i].config.seed, full[i].config.seed);
    EXPECT_EQ(stitched[i].result.delivered_words,
              full[i].result.delivered_words);
    EXPECT_EQ(stitched[i].result.power_w, full[i].result.power_w);
  }
  EXPECT_THROW((void)SweepRunner(1).run_range(spec, 0, spec.run_count() + 1),
               std::out_of_range);
  EXPECT_THROW((void)SweepRunner(1).run_range(spec, 3, 2), std::out_of_range);
}

// --- ShardLedger -------------------------------------------------------------

TEST_F(DistTest, ClaimsAreExclusiveUntilReleased) {
  dist::ShardLedger ledger(dir_, 30.0);
  auto first = ledger.try_claim(0, "worker-a");
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(ledger.try_claim(0, "worker-b").has_value())
      << "second claimant must lose";
  EXPECT_FALSE(ledger.reclaim_if_stale(0))
      << "a fresh claim must not be reclaimable";
  first->release();
  EXPECT_TRUE(ledger.try_claim(0, "worker-b").has_value())
      << "released claim must be claimable again";
}

TEST_F(DistTest, StaleAfterMustBeFiniteAndPositive) {
  // A NaN or infinite timeout never expires a claim, so a dead owner's
  // shard would hold the sweep forever; the ledger refuses to open.
  for (const double bad : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(dist::ShardLedger(dir_, bad), std::invalid_argument) << bad;
  }
}

TEST_F(DistTest, HeartbeatKeepsAClaimFreshAndDeathMakesItStale) {
  // Aggressive staleness so the test runs in ~1 s: heartbeats fire every
  // stale/4 = 100 ms.
  dist::ShardLedger ledger(dir_, 0.4);
  {
    const auto claim = ledger.try_claim(3, "worker-a");
    ASSERT_TRUE(claim.has_value());
    // Well past stale_after with the owner alive: heartbeats must have
    // refreshed the mtime, so the claim is not reclaimable.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    EXPECT_FALSE(ledger.reclaim_if_stale(3));
    // Simulate the owner dying: stop the heartbeat WITHOUT releasing, as
    // a killed process would, by backdating the claim file.
  }
  // Claim was released by the guard above; re-create a dead worker's claim
  // by claiming and backdating the file instead of heartbeating.
  auto dead = ledger.try_claim(4, "worker-dead");
  ASSERT_TRUE(dead.has_value());
  const std::string path =
      (fs::path(dir_) / "claims" / "shard-4.claim").string();
  fs::last_write_time(path, fs::file_time_type::clock::now() -
                                std::chrono::seconds(60));
  // The dead worker's heartbeat thread is still running in this process;
  // reclaim must still win because the rename has exactly one winner.
  EXPECT_TRUE(ledger.reclaim_if_stale(4));
  EXPECT_TRUE(ledger.try_claim(4, "worker-b").has_value());
  dead->release();  // no-op on the already-reclaimed file; must not throw
}

TEST_F(DistTest, PublishRejectsAMismatchedPlan) {
  dist::ShardLedger ledger(dir_, 30.0);
  const dist::LedgerPlan plan{12, 3, "aaaabbbbccccdddd"};
  ledger.publish(plan);
  ledger.publish(plan);  // idempotent republish of the identical plan
  EXPECT_EQ(ledger.plan().total_runs, 12u);
  EXPECT_EQ(ledger.plan().shard_count, 3u);
  EXPECT_EQ(ledger.plan().fingerprint, "aaaabbbbccccdddd");

  dist::LedgerPlan other = plan;
  other.fingerprint = "ddddccccbbbbaaaa";
  EXPECT_THROW(ledger.publish(other), std::runtime_error);
  other = plan;
  other.shard_count = 4;
  EXPECT_THROW(ledger.publish(other), std::runtime_error);
}

TEST_F(DistTest, ConcurrentPublishersOfOnePlanNeverCollide) {
  // Threads of one process must never share a temp-file name: 8 threads
  // publish the same plan into a fresh directory, 100 rounds, and no
  // publish may throw.
  const dist::LedgerPlan plan{12, 3, "aaaabbbbccccdddd"};
  for (int round = 0; round < 100; ++round) {
    const std::string dir = dir_ + "/round-" + std::to_string(round);
    const dist::ShardLedger ledger(dir, 30.0);
    std::atomic<int> failures{0};
    std::vector<std::thread> publishers;
    for (int t = 0; t < 8; ++t) {
      publishers.emplace_back([&] {
        try {
          dist::ShardLedger(dir, 30.0).publish(plan);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "round " << round << ": " << e.what();
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& publisher : publishers) publisher.join();
    ASSERT_EQ(failures.load(), 0) << "round " << round;
    EXPECT_EQ(ledger.plan().fingerprint, plan.fingerprint);
  }
}

TEST_F(DistTest, MergeRefusesIncompleteDirectories) {
  const SweepSpec spec = quick_spec();
  dist::WorkerOptions options;
  options.threads = 1;
  dist::run_worker(spec, 4, dir_, options);
  dist::ShardLedger ledger(dir_, 30.0);
  fs::remove(ledger.fragment_path(2));
  EXPECT_THROW((void)dist::merge_shards(dir_), std::runtime_error);
  EXPECT_THROW((void)dist::merge_shards(
                   (fs::path(dir_) / "does-not-exist").string()),
               std::runtime_error);

  // A committed fragment whose row count is not its shard's size is
  // corruption: the merge refuses it by name. Shard "2" owns runs [6, 9).
  const ResultSet full = SweepRunner(1).run(spec);
  for (const std::size_t end : {std::size_t{8}, std::size_t{10}}) {
    std::string fragment = csv_header() + '\n';
    for (std::size_t i = 6; i < end; ++i) {
      fragment += csv_row(full[i]);
      fragment += '\n';
    }
    ledger.commit_fragment(dist::ShardKey("2"), fragment);
    try {
      (void)dist::merge_shards(dir_);
      ADD_FAILURE() << "merge accepted a " << end - 6
                    << "-row fragment for a 3-run shard";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("shard 2 "), std::string::npos)
          << error.what();
    }
  }
}

// --- end-to-end: N workers, merge, crash reclaim -----------------------------

TEST_F(DistTest, ThreeWorkerSweepMergesBitIdenticalToSingleProcess) {
  const SweepSpec spec = quick_spec();

  // The single-process, single-thread reference CSV.
  std::ostringstream reference;
  write_csv(reference, SweepRunner(1).run(spec));

  // Three concurrent workers race over the same ledger directory.
  const std::size_t shard_count =
      dist::default_shard_count(spec.run_count(), 3);
  std::vector<std::thread> workers;
  std::vector<std::size_t> committed(3, 0);
  for (unsigned w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      dist::WorkerOptions options;
      options.threads = 1;
      options.worker_index = w;
      options.stale_after_s = 30.0;
      committed[w] =
          dist::run_worker(spec, shard_count, dir_, options).committed;
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(committed[0] + committed[1] + committed[2], shard_count)
      << "every shard must be committed exactly once";

  const dist::MergeOutput merged =
      dist::merge_shards(dir_, dist::fingerprint_of(spec));
  EXPECT_EQ(merged.csv_text, reference.str())
      << "merged CSV must be byte-identical to the single-process sweep";
  ASSERT_EQ(merged.results.size(), spec.run_count());

  // Merging with the wrong sweep's fingerprint must refuse.
  SweepSpec other = quick_spec();
  other.base.seed = 1234;
  EXPECT_THROW(
      (void)dist::merge_shards(dir_, dist::fingerprint_of(other)),
      std::runtime_error);
}

TEST_F(DistTest, DeadWorkersShardIsReclaimedAndCompleted) {
  const SweepSpec spec = quick_spec();
  const std::size_t shard_count = 4;
  const dist::ShardPlan plan(spec.run_count(), shard_count);

  // Fake a worker that claimed shard 1 and died mid-simulation: its claim
  // file exists, stopped heartbeating long ago, and has no fragment.
  dist::ShardLedger ledger(dir_, 0.5);
  ledger.publish(dist::LedgerPlan{plan.total_runs(), plan.shard_count(),
                                  dist::fingerprint_of(spec)});
  {
    auto doomed = ledger.try_claim(1, "worker-doomed");
    ASSERT_TRUE(doomed.has_value());
    // Detach the claim from its heartbeat the way SIGKILL would: backdate
    // the file after the guard's thread is gone.
  }
  // The guard released on scope exit; recreate the orphan file directly.
  const std::string orphan =
      (fs::path(dir_) / "claims" / "shard-1.claim").string();
  {
    std::ofstream out(orphan);
    out << "worker-doomed\n";
  }
  fs::last_write_time(orphan, fs::file_time_type::clock::now() -
                                  std::chrono::seconds(60));

  // A single surviving worker must reclaim shard 1 and finish everything.
  dist::WorkerOptions options;
  options.threads = 1;
  options.worker_index = 0;
  options.stale_after_s = 0.5;
  const std::size_t done =
      dist::run_worker(spec, shard_count, dir_, options).committed;
  EXPECT_EQ(done, plan.shard_count());

  std::ostringstream reference;
  write_csv(reference, SweepRunner(1).run(spec));
  EXPECT_EQ(dist::merge_shards(dir_).csv_text, reference.str());
}

// --- tombstone hygiene -------------------------------------------------------

TEST_F(DistTest, ReclaimUnlinksTombstonesAndOpenSweepsOrphans) {
  dist::ShardLedger ledger(dir_, 0.5);
  const fs::path claims = fs::path(dir_) / "claims";

  // Reclaim the same dead claim twice; afterwards the claims dir must
  // hold only live files — no .stale.<pid> tombstones left behind.
  for (int round = 0; round < 2; ++round) {
    {
      std::ofstream out(claims / "shard-0.claim");
      out << "worker-dead\n";
    }
    fs::last_write_time(claims / "shard-0.claim",
                        fs::file_time_type::clock::now() -
                            std::chrono::seconds(60));
    EXPECT_TRUE(ledger.reclaim_if_stale(0)) << "round " << round;
  }
  for (const auto& entry : fs::directory_iterator(claims)) {
    EXPECT_EQ(entry.path().filename().string().find(".stale."),
              std::string::npos)
        << "tombstone left behind: " << entry.path();
  }

  // A reclaimer that crashes between rename and unlink leaves an orphan
  // tombstone; opening the ledger must sweep it and spare live claims.
  {
    std::ofstream out(claims / "shard-9.claim.stale.12345");
    out << "worker-crashed-mid-reclaim\n";
  }
  auto live = ledger.try_claim(2, "worker-live");
  ASSERT_TRUE(live.has_value());
  dist::ShardLedger reopened(dir_, 0.5);
  EXPECT_FALSE(fs::exists(claims / "shard-9.claim.stale.12345"))
      << "orphan tombstone must be swept at open";
  EXPECT_TRUE(fs::exists(claims / "shard-2.claim"))
      << "live claims must survive the sweep";
}

TEST_F(DistTest, CommitLeavesOnlyTheFragmentBehind) {
  dist::ShardLedger ledger(dir_, 30.0);
  ledger.commit_fragment(dist::ShardKey("0"), "header\nrow\n");
  EXPECT_EQ(ledger.read_fragment(dist::ShardKey("0")), "header\nrow\n");
  std::size_t entries = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / "frags")) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "no temp files may survive a commit";
}

// --- incremental streaming ---------------------------------------------------

TEST_F(DistTest, CommittedPrefixDedupesAndStopsAtTheFirstGap) {
  dist::ShardLedger ledger(dir_, 30.0);
  const dist::ShardKey key("0");
  ledger.append_rows(key, {"0,a,b", "1,c,d"});
  // Zombie re-append of run 1 with different bytes: first wins.
  ledger.append_rows(key, {"1,X,X"});
  // Out-of-range and torn (wrong field count) rows are ignored.
  ledger.append_rows(key, {"9,e,f", "2,g"});
  // Run 3 exists but run 2 does not: the prefix must stop at 2.
  ledger.append_rows(key, {"3,h,i"});

  const std::vector<std::string> prefix =
      ledger.committed_prefix(key, 0, 6, 3);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0], "0,a,b");
  EXPECT_EQ(prefix[1], "1,c,d");

  // An unterminated trailing line (crash mid-append) is dropped.
  std::ofstream out(fs::path(dir_) / "parts" / "shard-0.rows",
                    std::ios::app | std::ios::binary);
  out << "2,torn";
  out.close();
  EXPECT_EQ(ledger.committed_prefix(key, 0, 6, 3).size(), 2u);
}

TEST_F(DistTest, WorkerResumesFromTheCommittedRowPrefix) {
  const SweepSpec spec = quick_spec();
  const ResultSet full = SweepRunner(1).run(spec);
  std::ostringstream reference;
  write_csv(reference, full);

  // A predecessor streamed runs 0..3 of shard "0" ([0,6)) before dying.
  dist::ShardLedger ledger(dir_, 30.0);
  ledger.publish(
      dist::LedgerPlan{spec.run_count(), 2, dist::fingerprint_of(spec)});
  ledger.append_rows(dist::ShardKey("0"), {csv_row(full[0]), csv_row(full[1]),
                                           csv_row(full[2])});

  dist::WorkerOptions options;
  options.threads = 1;
  const dist::WorkerReport report = dist::run_worker(spec, 2, dir_, options);
  EXPECT_EQ(report.committed, 2u);
  EXPECT_GE(report.resumed_rows, 3u)
      << "the predecessor's streamed rows must be reused, not recomputed";
  EXPECT_FALSE(report.sweep_quarantined);
  EXPECT_EQ(dist::merge_shards(dir_).csv_text, reference.str());
}

// --- stragglers --------------------------------------------------------------

TEST_F(DistTest, FastWorkerClaimsMostShardsPastAStraggler) {
  const SweepSpec spec = quick_spec();
  std::ostringstream reference;
  write_csv(reference, SweepRunner(1).run(spec));

  // One shard per run; worker 0 is an injected straggler (sleeps after each
  // run), so worker 1 keeps claiming while worker 0 finishes each shard.
  std::vector<std::thread> workers;
  std::vector<dist::WorkerReport> reports(2);
  for (unsigned w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      dist::WorkerOptions options;
      options.threads = 1;
      options.worker_index = w;
      options.stale_after_s = 30.0;
      options.run_delay_ms = w == 0 ? 150 : 0;
      try {
        reports[w] =
            dist::run_worker(spec, spec.run_count(), dir_, options);
      } catch (const std::exception& error) {
        // Fail the test instead of std::terminate-ing the binary.
        ADD_FAILURE() << "worker " << w << " threw: " << error.what();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_GT(reports[1].committed, reports[0].committed)
      << "the fast worker must take most of the small shards";
  EXPECT_EQ(reports[0].committed + reports[1].committed, spec.run_count());
  const dist::MergeOutput merged =
      dist::merge_shards(dir_, dist::fingerprint_of(spec));
  EXPECT_EQ(merged.csv_text, reference.str())
      << "a straggled sweep must still merge byte-identical";
}

TEST_F(DistTest, WorkersClaimFromThePlansEnd) {
  // Axis values usually rise, so the last shards tend to be the longest:
  // a worker walks the plan backwards, starting its own index from the end.
  const SweepSpec spec = quick_spec();
  std::ostringstream captured;
  const obs::LogLevel saved = obs::log_level();
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::set_log_sink(&captured);
  dist::WorkerOptions options;
  options.threads = 1;
  options.worker_index = 1;
  const dist::WorkerReport report = dist::run_worker(spec, 4, dir_, options);
  obs::set_log_sink(nullptr);
  obs::set_log_level(saved);

  std::vector<std::string> order;
  std::istringstream lines(captured.str());
  const std::string marker = "running shard ";
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.find(marker);
    if (at == std::string::npos) continue;
    const std::size_t begin = at + marker.size();
    order.push_back(line.substr(begin, line.find(' ', begin) - begin));
  }
  EXPECT_EQ(order, (std::vector<std::string>{"2", "1", "0", "3"}));
  EXPECT_EQ(report.committed, 4u);
}

// --- retry budget + quarantine -----------------------------------------------

TEST_F(DistTest, RetryBudgetExhaustionQuarantinesTheShard) {
  const SweepSpec spec = quick_spec();
  const ResultSet full = SweepRunner(1).run(spec);

  // Shard "1" ([6,12)) has crashed twice already (two strikes), streamed
  // run 6, and its dead owner's claim has gone stale.
  dist::ShardLedger ledger(dir_, 0.5);
  ledger.publish(
      dist::LedgerPlan{spec.run_count(), 2, dist::fingerprint_of(spec)});
  ledger.append_rows(dist::ShardKey("1"), {csv_row(full[6])});
  EXPECT_EQ(ledger.record_reclaim(dist::ShardKey("1")), 1u);
  EXPECT_EQ(ledger.record_reclaim(dist::ShardKey("1")), 2u);
  {
    std::ofstream out(fs::path(dir_) / "claims" / "shard-1.claim");
    out << "worker-crashing\n";
  }
  fs::last_write_time(fs::path(dir_) / "claims" / "shard-1.claim",
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(60));

  // The reclaim is the third strike: the worker must quarantine shard "1"
  // rather than re-run it, finish shard "0", and report the poisoned sweep.
  dist::WorkerOptions options;
  options.threads = 1;
  options.stale_after_s = 0.5;
  options.max_reclaims = 3;
  const dist::WorkerReport report = dist::run_worker(spec, 2, dir_, options);
  EXPECT_EQ(report.committed, 1u);
  EXPECT_TRUE(report.sweep_quarantined);
  ASSERT_EQ(report.poisoned.size(), 1u);
  EXPECT_EQ(report.poisoned[0].key, "1");
  EXPECT_EQ(report.poisoned[0].committed, 1u);
  EXPECT_EQ(report.poisoned[0].suspect, 7u)
      << "the suspect is the first run missing from the streamed prefix";
  EXPECT_GE(report.poisoned[0].reclaims, 3u);

  // Strict merges refuse a quarantined sweep by name.
  try {
    (void)dist::merge_shards(dir_);
    FAIL() << "merge must refuse quarantined shards by default";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("quarantined"),
              std::string::npos)
        << error.what();
  }

  // --allow-quarantined merges what survived and reports the exact gap.
  dist::MergeOptions merge_options;
  merge_options.allow_quarantined = true;
  const dist::MergeOutput merged = dist::merge_shards(dir_, merge_options);
  ASSERT_EQ(merged.gaps.size(), 1u);
  EXPECT_EQ(merged.gaps[0].key, "1");
  EXPECT_EQ(merged.gaps[0].committed, 1u);
  EXPECT_EQ(merged.gaps[0].missing_begin, 7u);
  EXPECT_EQ(merged.gaps[0].missing_end, 12u);
  ASSERT_TRUE(merged.gaps[0].poison.has_value());

  // Surviving rows: shard "0" complete plus shard "1"'s streamed run 6 —
  // byte-identical to the single-process prefix.
  std::ostringstream expected;
  expected << csv_header() << '\n';
  for (std::size_t i = 0; i < 7; ++i) expected << csv_row(full[i]) << '\n';
  EXPECT_EQ(merged.csv_text, expected.str());
  ASSERT_EQ(merged.results.size(), 7u);

  // Workers skip quarantined shards: another pass finds nothing to do.
  const dist::WorkerReport again = dist::run_worker(spec, 2, dir_, options);
  EXPECT_EQ(again.committed, 0u);
  EXPECT_TRUE(again.sweep_quarantined);
}

// --- sweep status ------------------------------------------------------------

TEST_F(DistTest, SweepStatusTracksShardStates) {
  const SweepSpec spec = quick_spec();
  dist::ShardLedger ledger(dir_, 30.0);
  ledger.publish(
      dist::LedgerPlan{spec.run_count(), 2, dist::fingerprint_of(spec)});

  // Shard "0" committed, shard "1" live-claimed with streamed progress.
  std::string fragment = csv_header() + '\n';
  for (int i = 0; i < 6; ++i) fragment += std::to_string(i) + ",x\n";
  ledger.commit_fragment(dist::ShardKey("0"), fragment);
  auto claim = ledger.try_claim(dist::ShardKey("1"), "worker-live");
  ASSERT_TRUE(claim.has_value());
  ledger.write_progress(dist::ShardKey("1"), dist::ProgressRecord{2, 6, 0});

  dist::SweepStatus status = dist::sweep_status(ledger);
  ASSERT_EQ(status.shards.size(), 2u);
  EXPECT_EQ(status.shards[0].state, dist::ShardState::kDone);
  EXPECT_EQ(status.shards[0].done, 6u);
  EXPECT_EQ(status.shards[1].state, dist::ShardState::kRunning);
  EXPECT_EQ(status.shards[1].done, 2u);
  EXPECT_EQ(status.runs_done, 8u);
  EXPECT_FALSE(status.complete);
  EXPECT_FALSE(status.settled);

  // Quarantining the open shard settles the sweep without completing it.
  claim->release();
  dist::PoisonRecord poison;
  poison.key = "1";
  poison.begin = 6;
  poison.end = 12;
  poison.committed = 2;
  poison.suspect = 8;
  poison.reclaims = 3;
  ASSERT_TRUE(ledger.quarantine(poison));
  status = dist::sweep_status(ledger);
  EXPECT_EQ(status.shards[1].state, dist::ShardState::kPoisoned);
  EXPECT_FALSE(status.complete);
  EXPECT_TRUE(status.settled);
  ASSERT_EQ(status.quarantined.size(), 1u);
  EXPECT_EQ(status.quarantined[0].suspect, 8u);

  std::ostringstream rendered;
  dist::render_status(rendered, status);
  EXPECT_NE(rendered.str().find("poisoned"), std::string::npos);
  EXPECT_NE(rendered.str().find("suspect run 8"), std::string::npos);
}

// --- coordinator backoff -----------------------------------------------------

TEST_F(DistTest, CoordinatorFailsFastOnASystematicallyCrashingBinary) {
  dist::ShardCoordinator coordinator(dir_, [](unsigned) {
    return std::vector<std::string>{"/bin/false"};
  });
  dist::CoordinatorOptions options;
  options.workers = 2;
  options.max_respawn_waves = 1;
  options.backoff_initial_s = 0.05;
  options.backoff_cap_s = 0.1;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)coordinator.run(4, options);
    FAIL() << "a never-publishing worker binary must exhaust the wave budget";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unsettled"), std::string::npos) << what;
    EXPECT_NE(what.find("crashing"), std::string::npos)
        << "the message must point at the crashing worker command: " << what;
    EXPECT_NE(what.find("4 workers spawned"), std::string::npos) << what;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 0.04) << "waves must be separated by backoff";
}

}  // namespace
}  // namespace sfab
