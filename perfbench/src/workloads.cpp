#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dist/coordinator.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/worker.hpp"
#include "exp/cache.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "gatelevel/lane_kernels.hpp"
#include "obs/registry.hpp"
#include "power/analytical.hpp"
#include "sim/lane_sim.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sfab;

std::string_view to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kPaper:
      return "paper";
    case Workload::kReplicates:
      return "replicates";
    case Workload::kSharded:
      return "sharded";
  }
  return "unknown";
}

Workload parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kPaper, Workload::kReplicates, Workload::kSharded}) {
    if (name == to_string(w)) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (paper, replicates, sharded)");
}

ShardLayout shard_layout(unsigned threads) noexcept {
  ShardLayout layout;
  layout.workers = std::max(1u, threads / 2);
  layout.threads_per_worker = std::max(1u, threads / layout.workers);
  return layout;
}

// --- workload definitions -------------------------------------------------------

namespace {

/// The default seed keeps a figure's own base seed; any other seed gives
/// every sweep a stream derived from it.
std::uint64_t reseed(std::uint64_t figure_seed, std::uint64_t seed) {
  return seed == kDefaultSeed ? figure_seed
                              : derive_stream_seed(figure_seed, seed);
}

SweepSpec shrink(SweepSpec spec, bool toy) {
  if (toy) {
    spec.base.warmup_cycles = 100;
    spec.base.measure_cycles = 400;
  }
  return spec;
}

}  // namespace

std::vector<NamedSpec> paper_specs(std::uint64_t seed, bool toy) {
  std::vector<NamedSpec> specs;
  const auto add = [&](std::string name, SweepSpec spec) {
    spec.base.seed = reseed(spec.base.seed, seed);
    specs.push_back(NamedSpec{std::move(name), shrink(std::move(spec), toy)});
  };

  SimConfig fig9;  // bench_fig9_power_vs_throughput
  fig9.warmup_cycles = 3'000;
  fig9.measure_cycles = 25'000;
  fig9.seed = 2002;
  {
    SweepSpec spec;
    spec.base = fig9;
    spec.over_architectures(all_architectures())
        .over_ports({4, 8, 16, 32})
        .over_loads({0.10, 0.20, 0.30, 0.40, 0.50});
    add("paper/fig9", spec);
  }
  {
    std::vector<double> loads;
    for (int k = 1; k <= 11; ++k) loads.push_back(0.05 * k);
    SweepSpec spec;
    spec.base = fig9;
    spec.base.ports = 32;
    spec.over_architectures(all_architectures()).over_loads(loads);
    add("paper/fig9.scan", spec);
  }
  {  // bench_fig10_power_vs_ports
    SweepSpec spec;
    spec.base.offered_load = 0.5;
    spec.base.warmup_cycles = 3'000;
    spec.base.measure_cycles = 20'000;
    spec.base.seed = 2002;
    spec.over_architectures(all_architectures())
        .over_ports({4, 8, 16, 32})
        .with_replicates(3);
    add("paper/fig10", spec);
  }
  {  // bench_saturation
    SweepSpec spec;
    spec.base.offered_load = 1.0;
    spec.base.warmup_cycles = 5'000;
    spec.base.measure_cycles = 40'000;
    spec.base.ingress_queue_packets = 16;
    spec.base.seed = 586;
    spec.over_architectures({Architecture::kCrossbar,
                             Architecture::kFullyConnected,
                             Architecture::kBatcherBanyan,
                             Architecture::kBanyan})
        .over_ports({4, 8, 16, 32});
    add("paper/saturation", spec);
  }
  SimConfig banyan32;  // bench_ablation_accounting
  banyan32.arch = Architecture::kBanyan;
  banyan32.ports = 32;
  banyan32.warmup_cycles = 3'000;
  banyan32.measure_cycles = 20'000;
  {
    SweepSpec spec;
    spec.base = banyan32;
    spec.base.offered_load = 0.5;
    spec.base.seed = 77;
    spec.over_charge_read_and_write({true, false});
    add("paper/ablation.accounting", spec);
  }
  {
    SweepSpec spec;
    spec.base = banyan32;
    spec.base.offered_load = 0.3;
    spec.base.seed = 78;
    spec.over_payloads(
        {PayloadKind::kZero, PayloadKind::kRandom, PayloadKind::kAlternating});
    add("paper/ablation.payload", spec);
  }
  {  // bench_ablation_buffer_size
    SweepSpec spec;
    spec.base.arch = Architecture::kBanyan;
    spec.base.ports = 16;
    spec.base.offered_load = 0.5;
    spec.base.warmup_cycles = 3'000;
    spec.base.measure_cycles = 25'000;
    spec.base.seed = 4242;
    spec.over_buffer_words({1, 2, 4, 8, 16, 32, 64, 128, 256});
    add("paper/ablation.buffer", spec);
  }
  {  // bench_ablation_technology
    SweepSpec spec;
    spec.base.ports = 16;
    spec.base.offered_load = 0.4;
    spec.base.warmup_cycles = 2'000;
    spec.base.measure_cycles = 15'000;
    spec.base.seed = 13;
    spec.over_architectures(all_architectures())
        .over_tech_nodes({"0.25um", "0.18um", "0.13um"});
    add("paper/ablation.technology", spec);
  }
  {  // bench_ablation_traffic
    SweepSpec spec;
    spec.base.ports = 16;
    spec.base.offered_load = 0.4;
    spec.base.hotspot_fraction = 0.3;
    spec.base.mean_burst_cycles = 300.0;
    spec.base.warmup_cycles = 3'000;
    spec.base.measure_cycles = 25'000;
    spec.base.seed = 99;
    spec.over_architectures(all_architectures())
        .over_patterns(
            {TrafficPatternKind::kUniform, TrafficPatternKind::kBitReversal,
             TrafficPatternKind::kHotspot, TrafficPatternKind::kBursty});
    add("paper/ablation.traffic", spec);
  }
  {  // bench_extension_mesh
    SweepSpec spec;
    spec.base.warmup_cycles = 3'000;
    spec.base.measure_cycles = 20'000;
    spec.base.seed = 64;
    spec.over_architectures(extended_architectures())
        .over_ports({16, 64})
        .over_loads({0.2, 0.4});
    add("paper/extension.mesh", spec);
  }
  SimConfig voq;  // bench_extension_voq
  voq.ingress_queue_packets = 128;
  voq.warmup_cycles = 5'000;
  voq.measure_cycles = 30'000;
  voq.seed = 7;
  {
    SweepSpec spec;
    spec.base = voq;
    spec.base.arch = Architecture::kCrossbar;
    spec.base.offered_load = 1.0;
    spec.over_schemes({RouterScheme::kFifo, RouterScheme::kVoq})
        .over_ports({4, 8, 16, 32});
    add("paper/extension.voq.saturation", spec);
  }
  {
    SweepSpec spec;
    spec.base = voq;
    spec.base.ports = 16;
    spec.base.scheme = RouterScheme::kVoq;
    spec.over_architectures(all_architectures()).over_loads({0.6, 0.8, 0.95});
    add("paper/extension.voq.load", spec);
  }
  return specs;
}

SweepSpec grid_spec(std::uint64_t seed, bool toy) {
  SweepSpec spec;
  spec.base.seed = reseed(0x5FAB6B1D, seed);
  // Shorter than the default run, so that three sharded batches fit in
  // the declared run time even while the host runs slow.
  spec.base.warmup_cycles = 1'000;
  spec.base.measure_cycles = 7'000;
  spec.over_architectures(all_architectures())
      .over_ports({16, 32})
      .over_schemes({RouterScheme::kFifo, RouterScheme::kVoq})
      .over_loads({0.2, 0.4, 0.6})
      .with_replicates(toy ? 4 : 16);
  return shrink(std::move(spec), toy);
}

LutBuildOptions ladder_options(bool toy, unsigned threads) {
  LutBuildOptions options;  // the committed artifact's generator
  options.max_mux_inputs = toy ? 4 : kLadderTop;
  if (toy) options.presets = {"0.18um"};
  options.threads = threads;
  return options;
}

std::string committed_lut_path(const std::string& repo_root) {
  return (fs::path(repo_root) / "power" / "luts" / "switch_luts.json")
      .string();
}

// --- output check ------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view text) noexcept {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void fail_range(std::vector<char>& failed, std::size_t first,
                std::size_t count) {
  for (std::size_t i = first; i < first + count && i < failed.size(); ++i) {
    failed[i] = 1;
  }
}

}  // namespace

std::uint64_t digest(std::string_view text) noexcept {
  return fnv1a(kFnvBasis, text);
}

std::uint64_t chunk_digest(const Chunk& chunk) noexcept {
  std::uint64_t h = kFnvBasis;
  for (const std::string& row : chunk.rows) h = fnv1a(fnv1a(h, row), "\n");
  return h;
}

void check_pinned(const std::vector<Chunk>& chunks, const PinnedDigests& pinned,
                  std::vector<char>& failed) {
  for (const Chunk& chunk : chunks) {
    const auto it = pinned.find(chunk.name);
    if (it == pinned.end() || it->second != chunk_digest(chunk)) {
      fail_range(failed, chunk.first_op, chunk.rows.size());
    }
  }
}

void check_same(const std::vector<Chunk>& got, const std::vector<Chunk>& want,
                std::vector<char>& failed) {
  for (std::size_t c = 0; c < got.size(); ++c) {
    if (c >= want.size() || got[c].name != want[c].name ||
        got[c].rows != want[c].rows) {
      fail_range(failed, got[c].first_op, got[c].rows.size());
    }
  }
}

LutRows lut_rows(const LutArtifact& artifact) {
  const auto hex = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return std::string(buf);
  };
  LutRows rows;
  for (const auto& [preset, t] : artifact.presets) {
    rows.emplace_back(preset + "/energy_scale", hex(t.energy_scale));
    const auto table = [&](const std::string& name,
                           const std::vector<double>& values) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        rows.emplace_back(preset + "/" + name + "/" + std::to_string(i),
                          hex(values[i]));
      }
    };
    table("crosspoint", t.crosspoint);
    table("banyan2x2", t.banyan2x2);
    table("sorter2x2", t.sorter2x2);
    for (std::size_t i = 0; i < t.mux_inputs.size(); ++i) {
      rows.emplace_back(preset + "/mux" + std::to_string(t.mux_inputs[i]),
                        i < t.mux_per_bit_j.size() ? hex(t.mux_per_bit_j[i])
                                                   : std::string("missing"));
    }
  }
  return rows;
}

void check_lut_rows(const LutRows& built, const LutRows& committed,
                    std::size_t first_op, std::vector<char>& failed) {
  const std::map<std::string, std::string> want(committed.begin(),
                                                committed.end());
  for (std::size_t k = 0; k < built.size(); ++k) {
    const auto it = want.find(built[k].first);
    if (it == want.end() || it->second != built[k].second) {
      fail_range(failed, first_op + k, 1);
    }
  }
}

std::size_t check_scalar_sample(const SweepSpec& spec,
                                const std::vector<std::string>& rows) {
  const std::size_t n = spec.run_count();
  const std::size_t k = std::max<std::size_t>(1, n / 64);
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = std::min(n - 1, j * n / k + j % (n / k));
    const ResultSet one = SweepRunner(1)
                              .with_engine(ReplicateEngine::kScalar)
                              .run_range(spec, i, i + 1);
    if (i >= rows.size() || csv_row(one[0]) != rows[i]) ++mismatches;
  }
  return mismatches;
}

const PinnedDigests& pinned_digests() {
  // `perfbench digests` prints these; regenerate them only for a change
  // that is meant to alter simulated results.
  static const PinnedDigests pinned{
      {"paper/fig9", 0x4e2a8f7a42df4805ull},
      {"paper/fig9.scan", 0x4c6bc8abc3492e5dull},
      {"paper/fig10", 0x942bbebfb8ed3b79ull},
      {"paper/saturation", 0xd25376b97081784cull},
      {"paper/ablation.accounting", 0x5c17e7ca72d99ffcull},
      {"paper/ablation.payload", 0x682357fe0fd3bd16ull},
      {"paper/ablation.buffer", 0x82d2771df848e788ull},
      {"paper/ablation.technology", 0x6d97554a835ad65eull},
      {"paper/ablation.traffic", 0xf900e58a0d96dfa5ull},
      {"paper/extension.mesh", 0x1997b4efd7b273e9ull},
      {"paper/extension.voq.saturation", 0x8c875bcf0da4728bull},
      {"paper/extension.voq.load", 0x82d00cfeb93b4892ull},
      {"grid/crossbar@16", 0x9f2cdc667c798112ull},
      {"grid/crossbar@32", 0x3a6f616fcbf3b039ull},
      {"grid/fully-connected@16", 0x34f956892e4c59dcull},
      {"grid/fully-connected@32", 0x2f5d388bbeb7fa73ull},
      {"grid/banyan@16", 0xf75bc0a87f8ee597ull},
      {"grid/banyan@32", 0xc2462b780c3639acull},
      {"grid/batcher-banyan@16", 0xdd1688b313662c8bull},
      {"grid/batcher-banyan@32", 0xbe6b850fa709f604ull},
      {"grid/csv", 0xbc3066d67b437f26ull},
  };
  return pinned;
}

std::size_t BatchResult::failed_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(failed.begin(), failed.end(), char{1}));
}

// --- batches ----------------------------------------------------------------------

namespace {

/// Opens a span when tracing; closes it on scope exit.
class Scope {
 public:
  Scope(BatchTrace* trace, const char* name, int parent = -1,
        long long op = -1)
      : trace_(trace),
        id_(trace != nullptr ? trace->tracer.open(name, parent, op) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  /// Closes now; returns the span's seconds (0 when not tracing).
  double close() {
    if (trace_ == nullptr || closed_) return 0.0;
    closed_ = true;
    trace_->tracer.close(id_);
    return trace_->tracer.duration(id_);
  }

 private:
  BatchTrace* trace_;
  int id_;
  bool closed_ = false;
};

/// What a batch holds before its first operation.
struct Setup {
  std::vector<NamedSpec> specs;
  std::size_t runs = 0;
  LutArtifact committed;                 // paper
  std::unique_ptr<ResultCache> store;    // paper
  std::string shard_dir;                 // sharded
  std::size_t shard_count = 0;           // sharded
  std::string fingerprint;               // sharded
};

Setup set_up(const Params& p, BatchTrace* trace, int parent) {
  Setup s;
  {
    Scope span(trace, "exp.expand", parent);
    if (p.workload == Workload::kPaper) {
      s.specs = paper_specs(p.seed, p.toy);
    } else {
      s.specs.push_back(NamedSpec{"grid", grid_spec(p.seed, p.toy)});
    }
    for (const NamedSpec& named : s.specs) {
      s.runs += named.spec.expand().size();
    }
    if (trace != nullptr) trace->expand_s = span.close();
  }
  {
    Scope span(trace, "sim.dispatch", parent);
    (void)lane_sim_kernel_name();
    (void)gatelevel::resolve_lane_kernel(gatelevel::LaneKernel::kAuto);
  }
  if (p.workload == Workload::kPaper) {
    {
      Scope span(trace, "power.artifact_load", parent);
      s.committed = load_lut_artifact(committed_lut_path(p.repo_root));
      (void)AnalyticalModel::from_lut_artifact(s.committed, "0.18um");
      if (trace != nullptr) trace->artifact_load_s = span.close();
    }
    Scope span(trace, "exp.store", parent);
    const fs::path path = fs::path(p.work_dir) / "store.csv";
    fs::create_directories(p.work_dir);
    fs::remove(path);
    s.store = std::make_unique<ResultCache>(path.string());
  }
  if (p.workload == Workload::kSharded) {
    Scope span(trace, "dist.setup", parent);
    s.shard_dir = (fs::path(p.work_dir) / "shards").string();
    fs::remove_all(s.shard_dir);
    fs::create_directories(s.shard_dir);
    s.shard_count = dist::default_shard_count(
        s.runs, shard_layout(p.threads).workers);
    s.fingerprint = dist::fingerprint_of(s.specs.front().spec);
  }
  return s;
}

/// Splits CSV text into its data rows (header dropped).
std::vector<std::string> csv_rows(const std::string& text) {
  std::vector<std::string> rows;
  std::istringstream in(text);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    rows.push_back(line);
  }
  return rows;
}

/// Grid chunks: one per architecture x port count (contiguous in
/// expansion order).
std::vector<Chunk> grid_chunks(const ResultSet& results,
                               const std::vector<std::string>& rows) {
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < results.size() && i < rows.size(); ++i) {
    const SimConfig& c = results[i].config;
    const std::string name = "grid/" + std::string(to_string(c.arch)) + "@" +
                             std::to_string(c.ports);
    if (chunks.empty() || chunks.back().name != name) {
      chunks.push_back(Chunk{name, i, {}});
    }
    chunks.back().rows.push_back(rows[i]);
  }
  return chunks;
}

/// The grid workloads' pinned check: every chunk, and the whole CSV text
/// byte for byte.
void verify_grid(const Params& p, const std::string& csv_text,
                 BatchResult& b) {
  if (p.seed != kDefaultSeed || p.toy) return;
  check_pinned(b.chunks, pinned_digests(), b.failed);
  const auto it = pinned_digests().find("grid/csv");
  if (it == pinned_digests().end() || it->second != digest(csv_text)) {
    fail_range(b.failed, 0, b.failed.size());
  }
}

void run_paper(const Params& p, Setup& s, BatchResult& b, BatchTrace* trace,
               int parent) {
  const LutBuildOptions ladder = ladder_options(p.toy, p.threads);
  const std::size_t presets = ladder.presets.empty()
                                  ? TechnologyParams::preset_names().size()
                                  : ladder.presets.size();
  std::size_t rungs = 0;
  for (unsigned n = 4; n <= ladder.max_mux_inputs; n *= 2) ++rungs;
  const std::size_t lut_ops = presets * (1 + 2 + 4 + 4 + rungs);
  b.ops = s.runs + lut_ops;
  b.failed.assign(b.ops, 0);

  std::unordered_set<std::string> stored_keys;
  std::size_t offset = 0;
  for (const NamedSpec& named : s.specs) {
    const std::size_t n = named.spec.run_count();
    Chunk chunk{named.name, offset, std::vector<std::string>(n)};
    Scope sweep(trace, "exp.sweep", parent, static_cast<long long>(offset));
    UnitRecorder recorder;
    SweepRunner runner(p.threads);
    runner.with_cache(s.store.get());
    if (trace != nullptr) {
      runner.with_on_record(recorder.callback());
      recorder.begin(now_s());
    }
    try {
      const ResultSet results = runner.run(named.spec);
      if (trace != nullptr) {
        trace->sweep_s += sweep.close();
        const std::vector<UnitSample> units = recorder.finish(
            results, &stored_keys, trace->tracer, sweep.id(), offset);
        trace->units.insert(trace->units.end(), units.begin(), units.end());
      }
      for (std::size_t i = 0; i < n; ++i) {
        chunk.rows[i] = csv_row(results[i]);
        b.results.push_back(results[i].result);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << named.name << ": " << e.what() << "\n";
      fail_range(b.failed, offset, n);
      b.results.resize(offset + n);
    }
    b.chunks.push_back(std::move(chunk));
    offset += n;
  }
  if (trace != nullptr) {
    trace->cache_hits = s.store->hits();
    trace->cache_lookups = s.store->hits() + s.store->misses();
  }

  {
    Scope span(trace, "gatelevel.ladder", parent,
               static_cast<long long>(s.runs));
    const double cpu0 = self_cpu_s();
    try {
      const LutArtifact built = build_lut_artifact(ladder);
      b.lut = lut_rows(built);
      const LutArtifact::Generator& g = built.generator;
      const LutArtifact::Generator& want = s.committed.generator;
      if (g.cycles != want.cycles || g.warmup != want.warmup ||
          g.seed != want.seed || g.lanes != want.lanes ||
          g.bits_per_port != want.bits_per_port || b.lut.size() != lut_ops) {
        fail_range(b.failed, s.runs, lut_ops);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: ladder: " << e.what() << "\n";
      fail_range(b.failed, s.runs, lut_ops);
    }
    if (trace != nullptr) {
      trace->ladder_cpu_s = self_cpu_s() - cpu0;
      trace->ladder_s = span.close();
    }
  }

  Scope verify(trace, "bench.verify", parent);
  if (p.seed == kDefaultSeed && !p.toy) {
    check_pinned(b.chunks, pinned_digests(), b.failed);
  }
  check_lut_rows(b.lut, lut_rows(s.committed), s.runs, b.failed);
}

void run_replicates(const Params& p, Setup& s, BatchResult& b,
                    BatchTrace* trace, int parent) {
  b.ops = s.runs;
  b.failed.assign(b.ops, 0);
  const SweepSpec& spec = s.specs.front().spec;
  Scope sweep(trace, "exp.sweep", parent, 0);
  UnitRecorder recorder;
  SweepRunner runner(p.threads);
  if (trace != nullptr) {
    runner.with_on_record(recorder.callback());
    recorder.begin(now_s());
  }
  std::string csv_text;
  try {
    const ResultSet results = runner.run(spec);
    if (trace != nullptr) {
      trace->sweep_s += sweep.close();
      trace->units =
          recorder.finish(results, nullptr, trace->tracer, sweep.id(), 0);
    }
    std::ostringstream csv;
    write_csv(csv, results);
    csv_text = csv.str();
    b.chunks = grid_chunks(results, csv_rows(csv_text));
    for (const RunRecord& rec : results) b.results.push_back(rec.result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: grid: " << e.what() << "\n";
    fail_range(b.failed, 0, b.ops);
  }
  Scope verify(trace, "bench.verify", parent);
  verify_grid(p, csv_text, b);
}

void run_sharded(const Params& p, Setup& s, BatchResult& b, BatchTrace* trace,
                 int parent) {
  b.ops = s.runs;
  b.failed.assign(b.ops, 0);
  const ShardLayout layout = shard_layout(p.threads);
  const fs::path reports = fs::path(p.work_dir) / "worker-reports";
  fs::remove_all(reports);
  fs::create_directories(reports);
  const auto worker_argv = [&](unsigned index) {
    std::vector<std::string> argv{p.worker_exe,
                                  "worker",
                                  "--seed",
                                  std::to_string(p.seed),
                                  "--threads",
                                  std::to_string(layout.threads_per_worker),
                                  "--shard-dir",
                                  s.shard_dir,
                                  "--shard-count",
                                  std::to_string(s.shard_count),
                                  "--index",
                                  std::to_string(index)};
    if (p.toy) argv.emplace_back("--toy");
    argv.emplace_back("--report");
    argv.push_back(
        (reports / ("worker-" + std::to_string(index) + ".txt")).string());
    return argv;
  };

  std::string csv_text;
  try {
    Scope coordinator(trace, "dist.coordinator", parent, 0);
    dist::CoordinatorOptions options;
    options.workers = layout.workers;
    const dist::CoordinatorReport report =
        dist::ShardCoordinator(s.shard_dir, worker_argv)
            .run(s.shard_count, options);
    if (trace != nullptr) trace->coordinator_s = coordinator.close();
    if (!report.complete || !report.poisoned.empty() || report.failed != 0) {
      throw std::runtime_error("sharded sweep did not settle cleanly");
    }
    Scope merge(trace, "dist.merge", parent, 0);
    dist::MergeOutput merged = dist::merge_shards(s.shard_dir, s.fingerprint);
    if (trace != nullptr) trace->merge_s = merge.close();
    csv_text = std::move(merged.csv_text);
    b.chunks = grid_chunks(merged.results, csv_rows(csv_text));
    for (const RunRecord& rec : merged.results) {
      b.results.push_back(rec.result);
    }
    if (merged.results.size() != s.runs) {
      throw std::runtime_error("merge returned the wrong run count");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: sharded: " << e.what() << "\n";
    fail_range(b.failed, 0, b.ops);
  }
  Scope verify(trace, "bench.verify", parent);
  verify_grid(p, csv_text, b);
}

WorkerTrace read_worker_report(const fs::path& path) {
  WorkerTrace w;
  std::ifstream in(path);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) {
    if (key == "index") {
      w.index = static_cast<unsigned>(value);
    } else if (key == "threads") {
      w.threads = static_cast<unsigned>(value);
    } else if (key == "start") {
      w.start = value;
    } else if (key == "end") {
      w.end = value;
    } else if (key == "cpu_s") {
      w.cpu_s = value;
    } else if (key == "maxrss_kb") {
      w.maxrss_kb = value;
    } else {
      w.counters[key] = static_cast<std::uint64_t>(value);
    }
  }
  return w;
}

/// The registry instruments a traced batch reports.
constexpr const char* kCounters[] = {
    "dist.ledger.claims",    "dist.ledger.commits",
    "dist.ledger.splits",    "dist.ledger.reclaims",
    "sim.lane.laned_passes", "sim.lane.laned_lanes",
    "sim.lane.fallback_lanes"};
constexpr const char* kHighWater = "sim.arena.high_water_words";

}  // namespace

BatchResult run_batch(const Params& p, BatchTrace* trace) {
  BatchResult b;
  const obs::Registry& registry = obs::Registry::global();
  std::map<std::string, std::uint64_t> before;
  for (const char* name : kCounters) before[name] = registry.counter_value(name);
  const int root =
      trace != nullptr
          ? trace->tracer.open("bench.batch." + std::string(to_string(p.workload)))
          : -1;
  const double t0 = now_s();
  Setup s;
  {
    Scope span(trace, "bench.setup", root);
    s = set_up(p, trace, span.id());
  }
  b.runs = s.runs;
  const double t1 = now_s();
  const double cpu1 = self_cpu_s() + children_cpu_s();
  switch (p.workload) {
    case Workload::kPaper:
      run_paper(p, s, b, trace, root);
      break;
    case Workload::kReplicates:
      run_replicates(p, s, b, trace, root);
      break;
    case Workload::kSharded:
      run_sharded(p, s, b, trace, root);
      break;
  }
  const double t2 = now_s();
  b.setup_s = t1 - t0;
  b.wall_s = t2 - t1;
  b.cpu_s = self_cpu_s() + children_cpu_s() - cpu1;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  double maxrss_kb = static_cast<double>(usage.ru_maxrss);
  std::vector<WorkerTrace> workers;
  if (p.workload == Workload::kSharded) {
    const fs::path reports = fs::path(p.work_dir) / "worker-reports";
    for (unsigned i = 0; i < shard_layout(p.threads).workers; ++i) {
      const fs::path path = reports / ("worker-" + std::to_string(i) + ".txt");
      if (!fs::exists(path)) continue;
      workers.push_back(read_worker_report(path));
      maxrss_kb = std::max(maxrss_kb, workers.back().maxrss_kb);
    }
  }
  b.peak_rss_mib = maxrss_kb / 1024.0;
  if (trace != nullptr) {
    trace->tracer.close(root);
    if (p.workload == Workload::kSharded) {
      for (WorkerTrace& w : workers) {
        trace->tracer.add("dist.worker", w.start, w.end, root);
        for (const char* name : kCounters) {
          trace->counters[name] += w.counters[name];
        }
        trace->counters[kHighWater] =
            std::max(trace->counters[kHighWater], w.counters[kHighWater]);
        trace->workers.push_back(std::move(w));
      }
    } else {
      for (const char* name : kCounters) {
        trace->counters[name] = registry.counter_value(name) - before[name];
      }
      trace->counters[kHighWater] = registry.gauge_value(kHighWater);
    }
  }
  if (!s.shard_dir.empty()) fs::remove_all(s.shard_dir);
  return b;
}

double time_setup(const Params& p) {
  const double t0 = now_s();
  Setup s = set_up(p, nullptr, -1);
  const double t1 = now_s();
  s.store.reset();
  if (!s.shard_dir.empty()) fs::remove_all(s.shard_dir);
  return t1 - t0;
}

int run_shard_worker(const Params& p, const std::string& shard_dir,
                     std::size_t shard_count, unsigned index,
                     const std::string& report_path) {
  const double start = now_s();
  dist::WorkerOptions options;
  options.threads = p.threads;
  options.worker_index = index;
  const dist::WorkerReport report =
      dist::run_worker(grid_spec(p.seed, p.toy), shard_count, shard_dir, options);
  const double end = now_s();
  {
    std::ofstream out(report_path);
    out.precision(17);
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    out << "index " << index << "\nthreads " << p.threads << "\nstart "
        << start << "\nend " << end << "\ncpu_s " << self_cpu_s()
        << "\nmaxrss_kb " << usage.ru_maxrss << "\n";
    const obs::Registry& registry = obs::Registry::global();
    for (const char* name : kCounters) {
      out << name << " " << registry.counter_value(name) << "\n";
    }
    out << kHighWater << " " << registry.gauge_value(kHighWater) << "\n";
  }
  return report.sweep_quarantined ? 3 : 0;
}

}  // namespace perfbench
