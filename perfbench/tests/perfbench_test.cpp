// The benchmark's own tests: every workload passes its output check at a
// toy size, and the check does fail when it should.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

fs::path work_dir() {
  return fs::temp_directory_path() /
         ("perfbench-test-" + std::to_string(::getpid()));
}

class RemoveWorkDir : public ::testing::Environment {
 public:
  void TearDown() override { fs::remove_all(work_dir()); }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new RemoveWorkDir);

Params toy(Workload workload, std::uint64_t seed = kDefaultSeed) {
  Params p;
  p.workload = workload;
  p.seed = seed;
  p.toy = true;
  p.threads = 2;
  p.repo_root = PERFBENCH_REPO_ROOT;
  p.work_dir = work_dir().string();
  p.worker_exe = PERFBENCH_EXE;
  return p;
}

std::vector<std::string> all_rows(const BatchResult& b) {
  std::vector<std::string> rows;
  for (const Chunk& chunk : b.chunks) {
    rows.insert(rows.end(), chunk.rows.begin(), chunk.rows.end());
  }
  return rows;
}

TEST(Workloads, ToyPaperPassesItsOutputCheck) {
  const Params p = toy(Workload::kPaper);
  const BatchResult b = run_batch(p);
  EXPECT_EQ(b.runs, 270u);
  EXPECT_GT(b.ops, b.runs);  // the ladder's LUT rows
  EXPECT_EQ(b.failed_count(), 0u);
  const std::vector<NamedSpec> specs = paper_specs(p.seed, p.toy);
  ASSERT_EQ(specs.size(), b.chunks.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(check_scalar_sample(specs[s].spec, b.chunks[s].rows), 0u)
        << specs[s].name;
  }
}

TEST(Workloads, ToyShardedMergeEqualsReplicatesByteForByte) {
  const BatchResult replicates = run_batch(toy(Workload::kReplicates));
  const BatchResult sharded = run_batch(toy(Workload::kSharded));
  EXPECT_EQ(replicates.failed_count(), 0u);
  EXPECT_EQ(sharded.failed_count(), 0u);
  ASSERT_FALSE(replicates.chunks.empty());
  EXPECT_EQ(all_rows(sharded), all_rows(replicates));
  EXPECT_EQ(check_scalar_sample(grid_spec(kDefaultSeed, true),
                                all_rows(replicates)),
            0u);
}

TEST(Workloads, TracedBatchMatchesUntracedAndSeesLaneCalls) {
  const Params p = toy(Workload::kReplicates);
  const BatchResult plain = run_batch(p);
  BatchTrace trace;
  BatchResult traced = run_batch(p, &trace);
  check_same(traced.chunks, plain.chunks, traced.failed);
  EXPECT_EQ(traced.failed_count(), 0u);
  ASSERT_FALSE(trace.units.empty());
  for (const UnitSample& unit : trace.units) EXPECT_TRUE(unit.lane);
  EXPECT_EQ(trace.counters["sim.lane.fallback_lanes"], 0u);
}

TEST(Check, PerturbedPinnedDigestFailsItsChunk) {
  const BatchResult b = run_batch(toy(Workload::kReplicates));
  PinnedDigests pinned;
  for (const Chunk& chunk : b.chunks) pinned[chunk.name] = chunk_digest(chunk);
  std::vector<char> failed(b.ops, 0);
  check_pinned(b.chunks, pinned, failed);
  EXPECT_EQ(std::count(failed.begin(), failed.end(), 1), 0);

  const Chunk& victim = b.chunks[1];
  pinned[victim.name] ^= 1;
  check_pinned(b.chunks, pinned, failed);
  EXPECT_EQ(static_cast<std::size_t>(std::count(failed.begin(), failed.end(), 1)),
            victim.rows.size());
  for (std::size_t i = 0; i < victim.rows.size(); ++i) {
    EXPECT_EQ(failed[victim.first_op + i], 1);
  }
}

TEST(Check, CorruptedLutRowFailsOneOperation) {
  sfab::LutArtifact committed =
      sfab::load_lut_artifact(committed_lut_path(PERFBENCH_REPO_ROOT));
  const LutRows built = lut_rows(committed);
  std::vector<char> failed(built.size(), 0);
  check_lut_rows(built, built, 0, failed);
  EXPECT_EQ(std::count(failed.begin(), failed.end(), 1), 0);

  double& row = committed.presets.front().second.mux_per_bit_j.back();
  row = std::nextafter(row, 1.0);
  check_lut_rows(built, lut_rows(committed), 0, failed);
  EXPECT_EQ(std::count(failed.begin(), failed.end(), 1), 1);
}

TEST(Check, SeedsGiveDifferentDigests) {
  const BatchResult a = run_batch(toy(Workload::kReplicates, 1));
  const BatchResult b = run_batch(toy(Workload::kReplicates, 2));
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t c = 0; c < a.chunks.size(); ++c) {
    EXPECT_NE(chunk_digest(a.chunks[c]), chunk_digest(b.chunks[c]))
        << a.chunks[c].name;
  }
  std::vector<char> failed(a.ops, 0);
  check_same(a.chunks, b.chunks, failed);
  EXPECT_EQ(static_cast<std::size_t>(std::count(failed.begin(), failed.end(), 1)),
            a.ops);
}

}  // namespace
}  // namespace perfbench
