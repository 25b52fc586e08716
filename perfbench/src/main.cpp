// perfbench command line.
//
//   perfbench run --workload W [--seed N] [--seconds S] [--trace 0|1]
//                 [--root DIR] [--work DIR]
//       Untraced (--trace 0): batches back to back for S seconds (three
//       at least), each after a 0.1 s burst of timed set-ups, then the
//       end-to-end metrics as medians over the batches and set-ups.
//       Traced (--trace 1): one untraced and one traced batch, then the
//       per-layer metrics. Either way the last line of stdout is
//       {"correct", "attempted", "failed", "metrics"}; the full record
//       (provenance, every batch, spans) is written under --work.
//   perfbench worker ...   shard worker of the sharded workload
//   perfbench digests      prints the default-seed digests to pin
// run and digests use nproc simulation threads; a worker runs the
// --threads its coordinator passes.
#include <sched.h>
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/report.hpp"
#include "gatelevel/lane_kernels.hpp"
#include "obs/host.hpp"
#include "sim/lane_sim.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

/// Set-up is timed back to back in a burst before every batch and after
/// the last one, this often and for this long at the least. The host's
/// speed wanders within a run, so the bursts span the batches' window.
constexpr std::size_t kSetupSamples = 9;
constexpr double kSetupBurstS = 0.1;
/// Batches an untraced run takes its medians over, at the least.
constexpr std::size_t kMinBatches = 3;

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string filesystem_of(const std::string& dir) {
  struct statfs fs_info {};
  if (::statfs(dir.c_str(), &fs_info) != 0) return "unknown";
  const auto type = static_cast<unsigned long>(fs_info.f_type);
  const std::map<unsigned long, const char*> names{
      {0xEF53, "ext4"},      {0x58465342, "xfs"},   {0x9123683E, "btrfs"},
      {0x01021994, "tmpfs"}, {0x794C7630, "overlay"}, {0x6969, "nfs"},
      {0x65735546, "fuse"},  {0x2FC12FC1, "zfs"}};
  const auto it = names.find(type);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", type);
  return it == names.end() ? std::string(hex)
                           : std::string(it->second) + " (" + hex + ")";
}

std::string provenance_json(const Params& p) {
  utsname uts{};
  ::uname(&uts);
  const ShardLayout layout = shard_layout(p.threads);
  std::ostringstream host;
  sfab::obs::write_host_json(host);
  std::ostringstream out;
  out << "{\"host\": " << host.str()
      << ", \"kernel_release\": " << json_string(uts.release)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"lto\": " << json_string(PERFBENCH_LTO)
      << ", \"threads\": " << p.threads
      << ", \"shard_workers\": " << layout.workers
      << ", \"threads_per_worker\": " << layout.threads_per_worker
      << ", \"seed\": " << p.seed
      << ", \"work_dir_fs\": " << json_string(filesystem_of(p.work_dir))
      << ", \"lane_sim_kernel\": "
      << json_string(std::string(sfab::lane_sim_kernel_name()))
      << ", \"gate_lane_kernel\": "
      << json_string(std::string(sfab::gatelevel::to_string(
             sfab::gatelevel::resolve_lane_kernel(
                 sfab::gatelevel::LaneKernel::kAuto))))
      << "}";
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

/// Scalar re-runs of a fixed sample of the batch's runs.
std::size_t scalar_mismatches(const Params& p, const BatchResult& batch) {
  std::size_t mismatches = 0;
  if (p.workload == Workload::kPaper) {
    const std::vector<NamedSpec> specs = paper_specs(p.seed, p.toy);
    for (std::size_t s = 0; s < specs.size() && s < batch.chunks.size(); ++s) {
      mismatches += check_scalar_sample(specs[s].spec, batch.chunks[s].rows);
    }
  } else {
    std::vector<std::string> rows;
    for (const Chunk& chunk : batch.chunks) {
      rows.insert(rows.end(), chunk.rows.begin(), chunk.rows.end());
    }
    mismatches += check_scalar_sample(grid_spec(p.seed, p.toy), rows);
  }
  return mismatches;
}

struct Args {
  std::map<std::string, std::string> values;
  bool toy = false;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      args.toy = true;
      continue;
    }
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument '" + flag + "'");
    }
    args.values[flag.substr(2)] = argv[++i];
  }
  return args;
}

Params params_of(const Args& args, unsigned threads) {
  Params p;
  p.workload = parse_workload(args.get("workload", "paper"));
  p.seed = std::stoull(args.get("seed", "0"));
  p.toy = args.toy;
  p.threads = threads;
  p.repo_root = args.get("root", ".");
  p.work_dir = fs::absolute(args.get("work", ".bench_build/perfbench-work"))
                   .string();
  p.worker_exe = fs::read_symlink("/proc/self/exe").string();
  return p;
}

int run(const Args& args) {
  const Params p = params_of(args, nproc());
  const double seconds = std::stod(args.get("seconds", "10"));
  const bool traced = args.get("trace", "0") == "1";
  if (!fs::exists(committed_lut_path(p.repo_root))) {
    throw std::runtime_error("no " + committed_lut_path(p.repo_root) +
                             " (run from the checkout root or pass --root)");
  }
  fs::create_directories(p.work_dir);
  const std::string provenance = provenance_json(p);
  std::cerr << "perfbench: " << to_string(p.workload) << " seed " << p.seed
            << (traced ? " traced" : "") << "\n  " << provenance << "\n";

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::ostringstream batches_json;
  const auto note_batch = [&](const char* kind, const BatchResult& b) {
    attempted += b.ops;
    failed += b.failed_count();
    batches_json << (batches_json.tellp() == 0 ? "" : ", ")
                 << "{\"kind\": \"" << kind << "\", \"setup_s\": "
                 << number(b.setup_s) << ", \"wall_s\": " << number(b.wall_s)
                 << ", \"cpu_s\": " << number(b.cpu_s)
                 << ", \"peak_rss_mb\": " << number(b.peak_rss_mib)
                 << ", \"runs\": " << b.runs << ", \"ops\": " << b.ops
                 << ", \"failed\": " << b.failed_count() << "}";
    std::cerr << "  " << kind << " batch: wall " << b.wall_s << " s, cpu "
              << b.cpu_s << " s, setup " << b.setup_s << " s, failed "
              << b.failed_count() << "/" << b.ops << "\n";
  };

  std::vector<double> setups;
  std::string spans_path;
  if (!traced) {
    const auto setup_burst = [&] {
      const double burst_start = now_s();
      for (std::size_t k = 0;
           k < kSetupSamples || now_s() - burst_start < kSetupBurstS; ++k) {
        setups.push_back(time_setup(p));
      }
    };
    // Batches back to back while the next one, at the median pace so
    // far, still ends within the measured seconds (kMinBatches at least).
    std::vector<BatchResult> batches;
    std::vector<double> wall;
    std::vector<double> rate;
    std::vector<double> cpu;
    std::vector<double> rss;
    const double start = now_s();
    do {
      setup_burst();
      batches.push_back(run_batch(p));
      BatchResult& b = batches.back();
      if (batches.size() > 1) check_same(b.chunks, batches.front().chunks, b.failed);
      note_batch("timed", b);
      wall.push_back(b.wall_s);
      rate.push_back(static_cast<double>(b.runs) / b.wall_s);
      cpu.push_back(b.cpu_s);
      rss.push_back(b.peak_rss_mib);
    } while (batches.size() < kMinBatches ||
             now_s() - start + median(wall) <= seconds);
    setup_burst();
    failed += scalar_mismatches(p, batches.front());
    metrics = {{"wall_s", median(wall), "s"},
               {"runs_per_s", median(rate), "runs/s"},
               {"cpu_s", median(cpu), "s"},
               {"peak_rss_mb", median(rss), "MiB"},
               {"setup_s", median(setups), "s"}};
  } else {
    const BatchResult plain = run_batch(p);
    note_batch("untraced", plain);
    BatchTrace trace;
    BatchResult traced_batch = run_batch(p, &trace);
    check_same(traced_batch.chunks, plain.chunks, traced_batch.failed);
    check_lut_rows(traced_batch.lut, plain.lut, plain.runs, traced_batch.failed);
    note_batch("traced", traced_batch);
    failed += scalar_mismatches(p, plain);
    metrics = layer_metrics(p, plain, traced_batch, trace);
    spans_path = (fs::path(p.work_dir) /
                  ("spans-" + std::string(to_string(p.workload)) + "-seed" +
                   std::to_string(p.seed) + ".json"))
                     .string();
    std::ofstream spans(spans_path);
    trace.tracer.write_json(spans);
  }

  // A scalar mismatch fails an operation the digests may have failed too.
  failed = std::min(failed, attempted);
  const std::string result =
      std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  const fs::path record_path =
      fs::path(p.work_dir) / ("record-" + std::string(to_string(p.workload)) +
                              "-seed" + std::to_string(p.seed) + "-trace" +
                              (traced ? "1" : "0") + ".json");
  std::ofstream record(record_path);
  record << "{\"workload\": " << json_string(std::string(to_string(p.workload)))
         << ", \"seed\": " << p.seed << ", \"trace\": " << (traced ? 1 : 0)
         << ",\n \"provenance\": " << provenance << ",\n \"batches\": ["
         << batches_json.str() << "],\n \"spans\": "
         << json_string(spans_path) << ",\n \"result\": " << result << "}\n";
  std::cout << result << std::endl;
  return 0;
}

int worker(const Args& args) {
  const Params p = params_of(
      args, static_cast<unsigned>(std::stoul(args.get("threads", "1"))));
  return run_shard_worker(p, args.get("shard-dir", ""),
                          std::stoull(args.get("shard-count", "1")),
                          static_cast<unsigned>(std::stoul(args.get("index", "0"))),
                          args.get("report", ""));
}

/// Prints the default-seed digests in the form pinned_digests() holds.
int digests(const Args& args) {
  Params p = params_of(args, nproc());
  p.seed = kDefaultSeed;
  p.toy = false;
  for (const Workload w : {Workload::kPaper, Workload::kReplicates}) {
    p.workload = w;
    const BatchResult b = run_batch(p);
    Chunk csv{"grid/csv", 0, {sfab::csv_header()}};
    for (const Chunk& chunk : b.chunks) {
      std::printf("      {\"%s\", 0x%016llxull},\n", chunk.name.c_str(),
                  static_cast<unsigned long long>(chunk_digest(chunk)));
      csv.rows.insert(csv.rows.end(), chunk.rows.begin(), chunk.rows.end());
    }
    if (w == Workload::kReplicates) {
      std::printf("      {\"%s\", 0x%016llxull},\n", csv.name.c_str(),
                  static_cast<unsigned long long>(chunk_digest(csv)));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The caller's result store, metrics switch and log level must not
  // change what is measured; worker processes inherit the scrubbed
  // environment.
  ::unsetenv("SFAB_RESULT_CACHE");
  ::unsetenv("SFAB_METRICS");
  ::unsetenv("SFAB_LOG");
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "run") return run(parse_args(argc, argv, 2));
    if (mode == "worker") return worker(parse_args(argc, argv, 2));
    if (mode == "digests") return digests(parse_args(argc, argv, 2));
    std::cerr << "usage: perfbench run --workload paper|replicates|sharded "
                 "[--seed N] [--seconds S] [--trace 0|1] [--root DIR] "
                 "[--work DIR]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
