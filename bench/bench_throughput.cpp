// Simulator throughput benchmark: packets/sec and simulated cycles/sec.
//
// Measures how fast the engine itself runs — not what the fabrics deliver —
// on the saturation workload (offered load 1.0, uniform traffic, the
// bench_saturation configuration), across fabrics and port counts. The
// per-config rows time run_simulation, i.e. one 1-lane pass of the lane
// engine. Emits a machine-readable BENCH_throughput.json so CI can archive
// the performance trajectory of the hot path over time; the headline
// number is the 32-port crossbar row.
//
// Usage: bench_throughput [--quick] [--reps N] [--out PATH] [--workers N]
//   --quick    small grid + short runs (CI smoke)
//   --reps     timing repetitions per config; best-of is reported (default 3)
//   --out      JSON output path (default BENCH_throughput.json)
//   --workers  N > 1: run the same grid as ONE sharded multi-process sweep
//              (src/dist; the bench re-execs itself as the workers) and
//              record aggregate sweep throughput plus the worker-count
//              metadata in the JSON instead of per-config wall times
// Internal (spawned by --workers): --shard-worker I --shard-dir D
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dist/coordinator.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/worker.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "obs/host.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/lane_sim.hpp"
#include "gatelevel/bitsliced.hpp"
#include "gatelevel/power_sim.hpp"
#include "gatelevel/switch_netlists.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"

namespace {

struct Row {
  sfab::SimConfig config;
  double best_s = 0.0;
  sfab::SimResult result;
};

// Gate-level characterization throughput, two comparisons:
//  1. banyan 2x2 LUT derivation through the scalar reference engine vs
//     the bit-sliced engine at its widest block — the headline
//     "bit-slicing buys ~2 orders of magnitude" number.
//  2. a wide-MUX (N >= 64 inputs) all-active sweep across block widths
//     64/128/256/512 — the multi-word widening payoff over the original
//     64-lane engine, on the harness class the widening was built for.
// "Cycles" are Monte-Carlo lane-cycles, the unit every engine samples
// energy in (each mask's budget rounds up to lanes * steps), so
// cycles/sec is directly comparable and ratios are true speedups.
struct GatelevelWidthRow {
  unsigned block_lanes = 0;
  double wall_s = 0.0;
  double cps = 0.0;
  double speedup_vs_64 = 0.0;
};

struct GatelevelRow {
  unsigned width = 0;
  std::size_t masks = 0;
  unsigned cycles_per_mask = 0;   // measurement budget per mask
  std::uint64_t lane_cycles = 0;  // *simulated* per mask: includes warmup
  unsigned lanes = 0;
  std::string kernel;
  double scalar_s = 0.0;
  double scalar_cps = 0.0;
  double sliced_s = 0.0;
  double sliced_cps = 0.0;
  double speedup = 0.0;
  // wide-MUX per-block-width sweep
  unsigned mux_inputs = 0;
  std::size_t mux_gates = 0;
  unsigned mux_cycles_per_mask = 0;
  std::uint64_t mux_lane_cycles = 0;
  std::vector<GatelevelWidthRow> widths;
  unsigned best_block_lanes = 0;
  double block_speedup = 0.0;  // best width vs the 64-lane block
};

GatelevelRow bench_gatelevel(bool quick, int reps) {
  using namespace sfab::gatelevel;
  constexpr unsigned kMaxLanes = BitslicedNetlist::kMaxLanes;
  constexpr unsigned kWarmup = 64;  // per lane, every engine and width
  GatelevelRow row;
  row.width = 32;
  row.cycles_per_mask = quick ? 8'000 : 64'000;
  row.lanes = kMaxLanes;
  row.kernel = std::string(to_string(resolve_lane_kernel(LaneKernel::kAuto)));
  const auto masks = all_masks(2);
  row.masks = masks.size();
  // Simulated lane-cycles per mask: every engine warms each of the
  // `lanes` streams kWarmup cycles and then measures ceil(budget / lanes)
  // more, so warmup belongs in the throughput numerator (the wall clock
  // pays for it) — and the total is identical across engines, block
  // widths, and pass decompositions, keeping the ratios true speedups.
  const auto simulated_lane_cycles = [&](unsigned budget) {
    const std::uint64_t steps = (budget + kMaxLanes - 1) / kMaxLanes;
    return (steps + kWarmup) * std::uint64_t{kMaxLanes};
  };
  row.lane_cycles = simulated_lane_cycles(row.cycles_per_mask);

  const auto time_engine = [&](CharacterizeEngine engine, double& wall_s) {
    CharacterizationConfig cfg;
    cfg.cycles = row.cycles_per_mask;
    cfg.warmup = kWarmup;
    cfg.seed = 99;
    cfg.engine = engine;
    wall_s = 0.0;
    for (int r = 0; r < reps; ++r) {
      SwitchHarness h = build_banyan_switch(row.width);
      const auto t0 = std::chrono::steady_clock::now();
      const auto results = characterize(h, masks, cfg);
      const auto t1 = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();
      if (r == 0 || s < wall_s) wall_s = s;
      if (results.empty()) std::abort();  // keep the work observable
    }
  };

  time_engine(CharacterizeEngine::kScalar, row.scalar_s);
  time_engine(CharacterizeEngine::kBitsliced, row.sliced_s);

  const double measured =
      static_cast<double>(masks.size()) * static_cast<double>(row.lane_cycles);
  row.scalar_cps = measured / row.scalar_s;
  row.sliced_cps = measured / row.sliced_s;
  row.speedup = row.sliced_cps / row.scalar_cps;

  // Wide-MUX sweep: N-input MUX, all inputs active, one mask; per block
  // width the same 512-lane sample is processed in ceil(512 / width)
  // passes, so wall-clock differences are pure per-sweep amortization +
  // SIMD width (results are bit-identical across rows by construction).
  row.mux_inputs = 64;
  row.mux_cycles_per_mask = quick ? 16'000 : 64'000;
  row.mux_lane_cycles = simulated_lane_cycles(row.mux_cycles_per_mask);
  {
    SwitchHarness probe = build_mux(row.mux_inputs, row.width);
    row.mux_gates = probe.netlist.num_gates();
  }
  for (const unsigned block : {64u, 128u, 256u, 512u}) {
    CharacterizationConfig cfg;
    cfg.cycles = row.mux_cycles_per_mask;
    cfg.warmup = kWarmup;
    cfg.seed = 1234;
    cfg.lanes = kMaxLanes;
    cfg.block_lanes = block;
    GatelevelWidthRow wrow;
    wrow.block_lanes = block;
    for (int r = 0; r < reps; ++r) {
      SwitchHarness mux = build_mux(row.mux_inputs, row.width);
      const auto t0 = std::chrono::steady_clock::now();
      const MaskEnergy e = characterize_all_active(mux, cfg);
      const auto t1 = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();
      if (r == 0 || s < wrow.wall_s) wrow.wall_s = s;
      if (e.energy_per_bit_j <= 0.0) std::abort();
    }
    wrow.cps = static_cast<double>(row.mux_lane_cycles) / wrow.wall_s;
    row.widths.push_back(wrow);
  }
  const double cps64 = row.widths.front().cps;
  for (GatelevelWidthRow& wrow : row.widths) {
    wrow.speedup_vs_64 = wrow.cps / cps64;
    if (row.best_block_lanes == 0 || wrow.cps > row.block_speedup * cps64) {
      row.best_block_lanes = wrow.block_lanes;
      row.block_speedup = wrow.speedup_vs_64;
    }
  }
  return row;
}

// Packet-level replicate lanes: the 32-port VOQ/iSLIP saturation workload
// at 64 replicates, one row per architecture (crossbar, fully-connected,
// Batcher-Banyan, banyan), a per-seed loop on the reference engine
// (run_reference_simulation) vs one lane-engine call (sim/lane_sim.hpp)
// over the same derive_stream_seed seed list. The two engines are
// bit-identical by construction; the bench checks a result fingerprint
// lane-for-lane before reporting timing, so the speedup can never come
// from computing something different.
struct PacketlanesRow {
  sfab::SimConfig config;
  unsigned replicates = 64;
  double scalar_s = 0.0;
  double laned_s = 0.0;
};

PacketlanesRow bench_packetlanes(const sfab::SimConfig& base,
                                 sfab::Architecture arch, unsigned ports,
                                 int reps) {
  using namespace sfab;
  PacketlanesRow row;
  row.config = base;
  row.config.arch = arch;
  row.config.ports = ports;
  row.config.scheme = RouterScheme::kVoq;

  std::vector<std::uint64_t> seeds(row.replicates);
  for (unsigned k = 0; k < row.replicates; ++k) {
    seeds[k] = derive_stream_seed(row.config.seed, k);
  }

  std::vector<SimResult> scalar_runs(row.replicates);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned k = 0; k < row.replicates; ++k) {
      SimConfig c = row.config;
      c.seed = seeds[k];
      scalar_runs[k] = run_reference_simulation(c);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < row.scalar_s) row.scalar_s = s;
  }

  std::vector<SimResult> laned_runs;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    laned_runs = run_lane_simulations(row.config, seeds);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < row.laned_s) row.laned_s = s;
  }

  for (unsigned k = 0; k < row.replicates; ++k) {
    if (laned_runs[k].delivered_packets != scalar_runs[k].delivered_packets ||
        laned_runs[k].power_w != scalar_runs[k].power_w ||
        laned_runs[k].mean_packet_latency_cycles !=
            scalar_runs[k].mean_packet_latency_cycles) {
      std::cerr << "packetlanes: lane " << k
                << " diverged from the scalar reference\n";
      std::abort();
    }
  }
  return row;
}

double time_once(const sfab::SimConfig& config, sfab::SimResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = sfab::run_simulation(config);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double packets_per_sec(const Row& row) {
  return static_cast<double>(row.result.delivered_packets) / row.best_s;
}

double cycles_per_sec(const Row& row) {
  return static_cast<double>(row.config.warmup_cycles +
                             row.config.measure_cycles) /
         row.best_s;
}

/// Populates the phase profiler with one short profiled sweep AFTER all
/// timed sections (so profiling overhead never lands in a reported
/// number), then writes the shared observability block every schema-v2
/// bench JSON carries: schema version, host metadata, the metrics
/// snapshot, and per-phase totals (exp.sweep, exp.unit).
void write_obs_json(std::ostream& json, const sfab::SimConfig& base) {
  using namespace sfab;
  obs::Profiler::global().set_enabled(true);
  SweepSpec sample;
  sample.base = base;
  sample.base.ports = 16;
  sample.base.warmup_cycles = 500;
  sample.base.measure_cycles = 2'000;
  sample.over_architectures({Architecture::kCrossbar, Architecture::kBanyan});
  (void)SweepRunner(1).run(sample);
  obs::Profiler::global().set_enabled(false);

  json << "  \"schema_version\": 2,\n  \"host\": ";
  obs::write_host_json(json);
  json << ",\n  \"metrics\": ";
  obs::Registry::global().write_json(json, 2);
  json << ",\n  \"phases\": ";
  obs::Profiler::global().write_stats_json(json, 2);
  json << ",\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfab;

  bool quick = false;
  int reps = 3;
  std::string out_path = "BENCH_throughput.json";
  unsigned workers = 1;
  int shard_worker = -1;
  std::string shard_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--shard-worker" && i + 1 < argc) {
      shard_worker = std::stoi(argv[++i]);
    } else if (arg == "--shard-dir" && i + 1 < argc) {
      shard_dir = argv[++i];
    } else {
      std::cerr << "usage: bench_throughput [--quick] [--reps N] [--out "
                   "PATH] [--workers N]\n";
      return 2;
    }
  }

  SimConfig base;
  base.offered_load = 1.0;  // saturation: every port always has traffic
  base.warmup_cycles = quick ? 1'000 : 5'000;
  base.measure_cycles = quick ? 4'000 : 40'000;
  base.ingress_queue_packets = 16;
  base.seed = 586;  // the bench_saturation workload

  const std::vector<Architecture> archs =
      quick ? std::vector<Architecture>{Architecture::kCrossbar,
                                        Architecture::kBanyan}
            : std::vector<Architecture>{Architecture::kCrossbar,
                                        Architecture::kFullyConnected,
                                        Architecture::kBatcherBanyan,
                                        Architecture::kBanyan};
  const std::vector<unsigned> port_counts =
      quick ? std::vector<unsigned>{8, 16} : std::vector<unsigned>{8, 16, 32};

  // --- sharded mode: the grid as one multi-process distributed sweep --------
  if (shard_worker >= 0 || workers > 1) {
    SweepSpec spec;
    spec.base = base;
    spec.over_architectures(archs);
    std::vector<unsigned> port_axis = port_counts;
    spec.over_ports(std::move(port_axis));
    const std::size_t shard_count =
        dist::default_shard_count(spec.run_count(), workers);

    if (shard_worker >= 0) {  // spawned child: work the ledger and exit
      dist::WorkerOptions options;
      const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
      options.threads = std::max(1u, hw / std::max(1u, workers));
      options.worker_index = static_cast<unsigned>(shard_worker);
      options.stale_after_s = 10.0;
      dist::run_worker(spec, shard_count, shard_dir, options);
      return 0;
    }

    const bool user_dir = !shard_dir.empty();
    if (!user_dir) {
      shard_dir = (std::filesystem::temp_directory_path() /
                   ("sfab-bench-shards-" + std::to_string(::getpid())))
                      .string();
    }
    const std::string self = argv[0];
    const auto worker_argv = [&](unsigned w) {
      std::vector<std::string> child{self, "--shard-worker",
                                     std::to_string(w), "--shard-dir",
                                     shard_dir, "--workers",
                                     std::to_string(workers)};
      if (quick) child.push_back("--quick");
      return child;
    };

    std::cout << "=== Distributed sweep throughput (" << workers
              << " worker processes, " << shard_count << " shards, "
              << (quick ? "quick" : "full") << " grid) ===\n\n";
    dist::CoordinatorOptions options;
    options.workers = workers;
    const auto t0 = std::chrono::steady_clock::now();
    const dist::CoordinatorReport report =
        dist::ShardCoordinator(shard_dir, worker_argv)
            .run(shard_count, options);
    const dist::MergeOutput merged =
        dist::merge_shards(shard_dir, dist::fingerprint_of(spec));
    const auto t1 = std::chrono::steady_clock::now();
    if (!user_dir) std::filesystem::remove_all(shard_dir);

    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    const double runs = static_cast<double>(merged.results.size());
    std::cout << merged.results.size() << " runs in "
              << format_fixed(wall_s, 2) << " s ("
              << format_fixed(runs / wall_s, 2) << " runs/s, "
              << report.spawned << " workers spawned)\n";

    std::ofstream json(out_path);
    if (!json.is_open()) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    json << "{\n";
    write_obs_json(json, base);
    json << "  \"bench\": \"throughput\",\n  \"workload\": {\n"
         << "    \"offered_load\": " << base.offered_load << ",\n"
         << "    \"packet_words\": " << base.packet_words << ",\n"
         << "    \"pattern\": \"uniform\",\n    \"scheme\": \"fifo\",\n"
         << "    \"warmup_cycles\": " << base.warmup_cycles << ",\n"
         << "    \"measure_cycles\": " << base.measure_cycles << ",\n"
         << "    \"ingress_queue_packets\": " << base.ingress_queue_packets
         << ",\n    \"seed\": " << base.seed
         << ",\n    \"workers\": " << workers << "\n  },\n"
         << "  \"sharded\": {\"workers\": " << workers
         << ", \"shards\": " << shard_count
         << ", \"workers_spawned\": " << report.spawned
         << ", \"wall_s\": " << wall_s << ", \"runs\": "
         << merged.results.size() << ", \"runs_per_sec\": " << runs / wall_s
         << "},\n  \"results\": [\n";
    for (std::size_t i = 0; i < merged.results.size(); ++i) {
      const RunRecord& rec = merged.results[i];
      json << "    {\"arch\": \"" << to_string(rec.config.arch)
           << "\", \"ports\": " << rec.config.ports
           << ", \"delivered_packets\": " << rec.result.delivered_packets
           << ", \"delivered_words\": " << rec.result.delivered_words
           << ", \"egress_throughput\": " << rec.result.egress_throughput
           << "}" << (i + 1 < merged.results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
  }

  std::cout << "=== Simulator throughput (saturation workload, "
            << (quick ? "quick" : "full") << " grid) ===\n\n";

  std::vector<Row> rows;
  for (const Architecture arch : archs) {
    for (const unsigned ports : port_counts) {
      Row row;
      row.config = base;
      row.config.arch = arch;
      row.config.ports = ports;
      row.best_s = time_once(row.config, row.result);  // warm + first sample
      for (int r = 1; r < reps; ++r) {
        SimResult result;
        const double s = time_once(row.config, result);
        if (s < row.best_s) {
          row.best_s = s;
          row.result = result;
        }
      }
      rows.push_back(row);
    }
  }

  TextTable t;
  t.set_header({"arch", "ports", "wall_ms", "pkts/sec", "sim cycles/sec",
                "egress thpt"});
  for (const Row& row : rows) {
    t.add_row({std::string(to_string(row.config.arch)),
               std::to_string(row.config.ports),
               format_fixed(row.best_s * 1e3, 1),
               format_fixed(packets_per_sec(row) / 1e6, 3) + "M",
               format_fixed(cycles_per_sec(row) / 1e6, 3) + "M",
               format_percent(row.result.egress_throughput)});
  }
  t.print(std::cout);

  std::cout << "\n=== Gate-level characterization (banyan 2x2 LUT, scalar "
               "vs bit-sliced; kernel: ";
  const GatelevelRow gl = bench_gatelevel(quick, reps);
  std::cout << gl.kernel << ") ===\n\n";
  TextTable gt;
  gt.set_header({"engine", "wall_ms", "charac. cycles/sec", "speedup"});
  gt.add_row({"scalar", format_fixed(gl.scalar_s * 1e3, 1),
              format_fixed(gl.scalar_cps / 1e6, 3) + "M", "1.00"});
  gt.add_row({"bitsliced", format_fixed(gl.sliced_s * 1e3, 1),
              format_fixed(gl.sliced_cps / 1e6, 3) + "M",
              format_fixed(gl.speedup, 2)});
  gt.print(std::cout);

  std::cout << "\n=== Multi-word lane blocks (" << gl.mux_inputs
            << "-input MUX all-active, " << gl.mux_gates << " gates, "
            << gl.lanes << " lanes/mask) ===\n\n";
  TextTable wt;
  wt.set_header({"block lanes", "wall_ms", "charac. cycles/sec",
                 "speedup vs 64"});
  for (const GatelevelWidthRow& wrow : gl.widths) {
    wt.add_row({std::to_string(wrow.block_lanes),
                format_fixed(wrow.wall_s * 1e3, 1),
                format_fixed(wrow.cps / 1e6, 3) + "M",
                format_fixed(wrow.speedup_vs_64, 2)});
  }
  wt.print(std::cout);

  // One scalar-vs-laned row per architecture of the sweep grid. Crossbar
  // first: its laned rate is the headline the regression gate tracks.
  const std::vector<Architecture> lane_archs = {
      Architecture::kCrossbar, Architecture::kFullyConnected,
      Architecture::kBatcherBanyan, Architecture::kBanyan};
  std::vector<PacketlanesRow> pls;
  for (const Architecture arch : lane_archs) {
    pls.push_back(bench_packetlanes(base, arch, 32, reps));
  }
  const auto scalar_rps = [](const PacketlanesRow& row) {
    return static_cast<double>(row.replicates) / row.scalar_s;
  };
  const auto laned_rps = [](const PacketlanesRow& row) {
    return static_cast<double>(row.replicates) / row.laned_s;
  };
  std::cout << "\n=== Packet-level replicate lanes (32x32 VOQ/iSLIP "
               "saturation, "
            << pls.front().replicates << " replicates, kernel: "
            << lane_sim_kernel_name() << ") ===\n\n";
  TextTable pt;
  pt.set_header({"arch", "scalar ms", "laned ms", "scalar reps/s",
                 "laned reps/s", "speedup"});
  for (const PacketlanesRow& row : pls) {
    pt.add_row({std::string(to_string(row.config.arch)),
                format_fixed(row.scalar_s * 1e3, 1),
                format_fixed(row.laned_s * 1e3, 1),
                format_fixed(scalar_rps(row), 2),
                format_fixed(laned_rps(row), 2),
                format_fixed(laned_rps(row) / scalar_rps(row), 2)});
  }
  pt.print(std::cout);

  std::ofstream json(out_path);
  if (!json.is_open()) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n";
  write_obs_json(json, base);
  json << "  \"bench\": \"throughput\",\n  \"workload\": {\n"
       << "    \"offered_load\": " << base.offered_load << ",\n"
       << "    \"packet_words\": " << base.packet_words << ",\n"
       << "    \"pattern\": \"uniform\",\n    \"scheme\": \"fifo\",\n"
       << "    \"warmup_cycles\": " << base.warmup_cycles << ",\n"
       << "    \"measure_cycles\": " << base.measure_cycles << ",\n"
       << "    \"ingress_queue_packets\": " << base.ingress_queue_packets
       << ",\n    \"seed\": " << base.seed << ",\n    \"reps\": " << reps
       << ",\n    \"workers\": 1\n  },\n"
       << "  \"gatelevel\": {\n"
       << "    \"harness\": \"banyan2x2\",\n    \"width\": " << gl.width
       << ",\n    \"masks\": " << gl.masks << ",\n    \"cycles_per_mask\": "
       << gl.cycles_per_mask << ",\n    \"lanes\": " << gl.lanes
       << ",\n    \"kernel\": \"" << gl.kernel << "\""
       << ",\n    \"scalar_wall_s\": " << gl.scalar_s
       << ",\n    \"scalar_cycles_per_sec\": " << gl.scalar_cps
       << ",\n    \"bitsliced_wall_s\": " << gl.sliced_s
       << ",\n    \"bitsliced_cycles_per_sec\": " << gl.sliced_cps
       << ",\n    \"speedup\": " << gl.speedup << ",\n"
       << "    \"mux\": {\n"
       << "      \"inputs\": " << gl.mux_inputs << ",\n      \"width\": "
       << gl.width << ",\n      \"gates\": " << gl.mux_gates
       << ",\n      \"lanes\": " << gl.lanes
       << ",\n      \"cycles_per_mask\": " << gl.mux_cycles_per_mask
       << ",\n      \"widths\": [\n";
  for (std::size_t i = 0; i < gl.widths.size(); ++i) {
    const GatelevelWidthRow& wrow = gl.widths[i];
    json << "        {\"block_lanes\": " << wrow.block_lanes
         << ", \"wall_s\": " << wrow.wall_s
         << ", \"cycles_per_sec\": " << wrow.cps
         << ", \"speedup_vs_64\": " << wrow.speedup_vs_64 << "}"
         << (i + 1 < gl.widths.size() ? "," : "") << "\n";
  }
  json << "      ],\n      \"best_block_lanes\": " << gl.best_block_lanes
       << ",\n      \"block_speedup\": " << gl.block_speedup
       << "\n    }\n  },\n"
       << "  \"packetlanes\": {\n"
       << "    \"arch\": \"" << to_string(pls.front().config.arch)
       << "\",\n    \"ports\": " << pls.front().config.ports
       << ",\n    \"scheme\": \"" << to_string(pls.front().config.scheme)
       << "\",\n    \"replicates\": " << pls.front().replicates
       << ",\n    \"lanes\": " << pls.front().replicates
       << ",\n    \"kernel\": \"" << lane_sim_kernel_name()
       << "\",\n    \"scalar_wall_s\": " << pls.front().scalar_s
       << ",\n    \"scalar_replicates_per_sec\": " << scalar_rps(pls.front())
       << ",\n    \"laned_wall_s\": " << pls.front().laned_s
       << ",\n    \"laned_replicates_per_sec\": " << laned_rps(pls.front())
       << ",\n    \"speedup\": "
       << laned_rps(pls.front()) / scalar_rps(pls.front())
       << ",\n    \"rows\": [\n";
  for (std::size_t i = 0; i < pls.size(); ++i) {
    const PacketlanesRow& row = pls[i];
    json << "      {\"arch\": \"" << to_string(row.config.arch)
         << "\", \"ports\": " << row.config.ports << ", \"scheme\": \""
         << to_string(row.config.scheme)
         << "\", \"replicates\": " << row.replicates
         << ", \"scalar_wall_s\": " << row.scalar_s
         << ", \"scalar_replicates_per_sec\": " << scalar_rps(row)
         << ", \"laned_wall_s\": " << row.laned_s
         << ", \"laned_replicates_per_sec\": " << laned_rps(row)
         << ", \"speedup\": " << laned_rps(row) / scalar_rps(row) << "}"
         << (i + 1 < pls.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"arch\": \"" << to_string(row.config.arch)
         << "\", \"ports\": " << row.config.ports
         << ", \"wall_s_best\": " << row.best_s
         << ", \"delivered_packets\": " << row.result.delivered_packets
         << ", \"delivered_words\": " << row.result.delivered_words
         << ", \"packets_per_sec\": " << packets_per_sec(row)
         << ", \"sim_cycles_per_sec\": " << cycles_per_sec(row)
         << ", \"egress_throughput\": " << row.result.egress_throughput
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::cout << "\nwrote " << out_path << " (headline: crossbar @ "
            << port_counts.back() << " ports = "
            << format_fixed(packets_per_sec(rows[port_counts.size() - 1]) /
                                1e6,
                            3)
            << "M pkts/sec)\n";
  return 0;
}
