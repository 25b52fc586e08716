// perfbench: the repository's end-to-end and per-layer benchmark.
//
// Three workloads, each one closed-loop client that submits a fixed batch
// through the library's public entry points and waits for all of it:
//   paper       every SweepSpec behind the paper's figures, ablations and
//               extensions through one SweepRunner + one fresh result
//               store, then the Table-1 LUT ladder (build_lut_artifact);
//   replicates  one Monte-Carlo design-space grid in-process, every grid
//               point a 16-lane run_lane_simulations unit;
//   sharded     the same grid through ShardCoordinator worker processes
//               (this binary re-invoked in worker mode) + merge_shards.
// Every batch checks its outputs (digests, scalar re-runs, LUT rows); a
// traced batch additionally records spans around the calls into each
// layer, from which the per-layer metrics are derived (layers.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/spec.hpp"
#include "power/lut_artifact.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Workload { kPaper, kReplicates, kSharded };

[[nodiscard]] std::string_view to_string(Workload workload) noexcept;
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload parse_workload(std::string_view name);

/// The benchmark's default seed: every paper figure keeps its own base
/// seed, so the default run regenerates exactly what bench_* prints, and
/// the pinned digests apply.
inline constexpr std::uint64_t kDefaultSeed = 0;

/// Everything one batch depends on.
struct Params {
  Workload workload = Workload::kPaper;
  std::uint64_t seed = kDefaultSeed;
  /// Shrinks every run (cycles, replicates, ladder) for the tests; the
  /// pinned digests do not apply to toy batches.
  bool toy = false;
  /// Simulation threads in total, across worker processes.
  unsigned threads = 4;
  /// Checkout root: holds power/luts/switch_luts.json.
  std::string repo_root = ".";
  /// Scratch directory for the result store, shard directory and replays.
  std::string work_dir;
  /// This binary, re-invoked as the sharded workload's workers.
  std::string worker_exe;
};

/// Shard workers and threads per worker for `threads` in total: fewer
/// workers than cores, each with several threads, as one-worker-per-host
/// deployments run them.
struct ShardLayout {
  unsigned workers = 1;
  unsigned threads_per_worker = 1;
};
[[nodiscard]] ShardLayout shard_layout(unsigned threads) noexcept;

// --- workload definitions (workloads.cpp) ------------------------------------

struct NamedSpec {
  std::string name;  ///< pinned-digest chunk name
  sfab::SweepSpec spec;
};

/// Every SweepSpec of bench_fig9*, bench_fig10*, bench_saturation, the
/// four bench_ablation_* and both bench_extension_*, in that order.
[[nodiscard]] std::vector<NamedSpec> paper_specs(std::uint64_t seed,
                                                 bool toy);

/// The design-space grid of `replicates` and `sharded`: the four paper
/// fabrics x {fifo, voq} x {16, 32} ports x 3 loads x 16 replicates, each
/// run 1k warmup + 7k measured cycles.
[[nodiscard]] sfab::SweepSpec grid_spec(std::uint64_t seed, bool toy);

/// The Table-1 ladder the paper workload regenerates: the committed
/// artifact's generator, MUX rungs up to kLadderTop (a prefix of the
/// committed ladder, as the CI drift gate uses).
inline constexpr unsigned kLadderTop = 64;
[[nodiscard]] sfab::LutBuildOptions ladder_options(bool toy, unsigned threads);

/// power/luts/switch_luts.json under `repo_root`.
[[nodiscard]] std::string committed_lut_path(const std::string& repo_root);

// --- output check (workloads.cpp) ---------------------------------------------

/// 64-bit FNV-1a.
[[nodiscard]] std::uint64_t digest(std::string_view text) noexcept;

/// A named run of consecutive operations whose rows are digested together.
struct Chunk {
  std::string name;
  std::size_t first_op = 0;
  std::vector<std::string> rows;  ///< csv_row text, one per run
};

/// Digest of a chunk's rows, each followed by '\n'.
[[nodiscard]] std::uint64_t chunk_digest(const Chunk& chunk) noexcept;

/// Chunk name -> digest at the default seed (full size).
using PinnedDigests = std::map<std::string, std::uint64_t>;
[[nodiscard]] const PinnedDigests& pinned_digests();

/// Marks every operation of each chunk whose digest differs from
/// `pinned` (or is missing from it) in `failed`.
void check_pinned(const std::vector<Chunk>& chunks, const PinnedDigests& pinned,
                  std::vector<char>& failed);

/// Marks every operation of each chunk of `got` whose rows differ from the
/// same chunk of `want` (same layout assumed; a missing chunk fails).
void check_same(const std::vector<Chunk>& got, const std::vector<Chunk>& want,
                std::vector<char>& failed);

/// One LUT table row: key ("0.18um/mux64") -> hexfloat text.
using LutRows = std::vector<std::pair<std::string, std::string>>;
[[nodiscard]] LutRows lut_rows(const sfab::LutArtifact& artifact);

/// Marks LUT operation k (failed[first_op + k]) when built row k is not
/// string-equal to the committed row of the same key.
void check_lut_rows(const LutRows& built, const LutRows& committed,
                    std::size_t first_op, std::vector<char>& failed);

/// Re-runs a fixed sample of `spec`'s runs through ReplicateEngine::kScalar
/// and returns how many rows differ from `rows` (the batch's csv rows, in
/// expansion order).
[[nodiscard]] std::size_t check_scalar_sample(
    const sfab::SweepSpec& spec, const std::vector<std::string>& rows);

// --- batches (workloads.cpp) -------------------------------------------------

/// What a traced batch saw, beyond its spans.
struct WorkerTrace {
  unsigned index = 0;
  unsigned threads = 0;
  double start = 0.0;  ///< steady-clock seconds (shared by all processes)
  double end = 0.0;
  double cpu_s = 0.0;
  double maxrss_kb = 0.0;
  std::map<std::string, std::uint64_t> counters;  ///< registry values
};

struct BatchTrace {
  Tracer tracer;
  std::vector<UnitSample> units;   ///< engine calls of in-process sweeps
  double sweep_s = 0.0;            ///< summed SweepRunner::run wall
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  double expand_s = 0.0;
  double artifact_load_s = 0.0;
  double ladder_s = 0.0;
  double ladder_cpu_s = 0.0;
  double coordinator_s = 0.0;
  double merge_s = 0.0;
  std::vector<WorkerTrace> workers;
  /// Registry counters over the batch (summed over workers when sharded)
  /// and the arena high-water gauge.
  std::map<std::string, std::uint64_t> counters;
};

struct BatchResult {
  std::size_t runs = 0;  ///< simulation runs
  std::size_t ops = 0;   ///< runs + LUT rows
  std::vector<char> failed;  ///< per operation
  std::vector<Chunk> chunks;
  LutRows lut;
  std::vector<sfab::SimResult> results;  ///< per run, expansion order
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Peak RSS of this process or of the batch's largest worker, MiB.
  double peak_rss_mib = 0.0;

  [[nodiscard]] std::size_t failed_count() const noexcept;
};

/// Runs one batch of `params.workload`. With `trace`, records spans and the
/// trace data; the engine path is the same either way (no profiler, no
/// observer). Failures of operations are recorded, not thrown.
[[nodiscard]] BatchResult run_batch(const Params& params,
                                    BatchTrace* trace = nullptr);

/// Set-up only (what run_batch does before its first operation), timed;
/// leaves no state behind. Returns seconds.
[[nodiscard]] double time_setup(const Params& params);

/// Worker mode: runs dist::run_worker on the grid for `params.seed` and
/// writes its WorkerTrace to `report_path`.
int run_shard_worker(const Params& params, const std::string& shard_dir,
                     std::size_t shard_count, unsigned index,
                     const std::string& report_path);

// --- per-layer metrics (layers.cpp) ------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric, in BENCHMARK.json order, for a workload whose
/// untraced batch is `plain` and traced batch is `traced`. Runs the layer
/// replays the workload's engine exercises; metrics of layers the
/// workload does not run read 0.
[[nodiscard]] std::vector<Metric> layer_metrics(const Params& params,
                                                const BatchResult& plain,
                                                const BatchResult& traced,
                                                const BatchTrace& trace);

}  // namespace perfbench
