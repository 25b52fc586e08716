// Command-line front end: run a single simulation or a whole sweep from
// the shell, on every core.
//
//   sfab_cli --arch banyan --ports 16 --load 0.35 --cycles 20000
//   sfab_cli --arch crossbar,banyan --ports 8,16,32 --load 0.1,0.3,0.5
//            --replicates 3 --threads 8 --csv sweep.csv
//
// Every sweep flag accepts a comma-separated list; the cross product runs
// through exp/SweepRunner with deterministic per-run seeds (bit-identical
// at any --threads value). A single run prints the full measurement block;
// a sweep prints a summary table. --csv <path> writes the stable
// machine-readable schema instead ("-" = stdout).
//
// The CLI is also the distributed-sweep front end (src/dist): --shards N
// makes it a coordinator that spawns N copies of itself as shard workers
// over a shared --shard-dir and merges their fragments; --shard-index I
// makes it worker I against that directory (run it by hand on several
// hosts sharing the directory for a multi-host sweep); --merge reassembles
// a completed directory without simulating. The merged CSV is
// byte-identical to the same sweep run in one process.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "dist/coordinator.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/status.hpp"
#include "dist/worker.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "obs/log.hpp"
#include "obs/probe.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/report.hpp"

namespace {

using namespace sfab;

void print_usage() {
  std::cout <<
      "usage: sfab_cli [options]   (list-valued flags take a,b,c)\n"
      "  --arch LIST        crossbar | fully-connected | banyan |\n"
      "                     batcher-banyan | mesh          [crossbar]\n"
      "  --ports LIST       port count 2..64 (banyan-class: power of\n"
      "                     two; mesh: square)                      [16]\n"
      "  --load LIST        offered load, words/port/cycle in (0,1]  [0.4]\n"
      "  --pattern LIST     uniform | bit-reversal | hotspot | bursty\n"
      "                                                        [uniform]\n"
      "  --payload LIST     random | alternating | zero         [random]\n"
      "  --scheme LIST      fifo | voq                            [fifo]\n"
      "  --tech LIST        0.25um | 0.18um | 0.13um            [0.18um]\n"
      "  --buffer-words LIST node FIFO capacity in words          [128]\n"
      "  --packet-words LIST packet length incl. header word       [16]\n"
      "  --replicates N     seeds per grid point                     [1]\n"
      "  --threads N        worker threads (0 = all cores)           [0]\n"
      "  --cycles N         measured cycles                      [20000]\n"
      "  --warmup N         warm-up cycles                        [2000]\n"
      "  --seed N           base seed (per-run seeds are derived)    [1]\n"
      "  --skid N           skid bypass slots                        [1]\n"
      "  --dram             DRAM-backed node buffers (adds refresh)\n"
      "  --csv PATH         write the sweep as CSV to PATH (- = stdout)\n"
      "distributed sweeps (see README \"Distributed sweeps\"):\n"
      "  --shards N         coordinator: spawn N local shard workers,\n"
      "                     then merge their fragments\n"
      "  --shard-index I    worker I: claim and run shards against\n"
      "                     --shard-dir until the sweep completes\n"
      "                     (requires --shards N = total worker count)\n"
      "  --shard-dir PATH   shared ledger directory (coordinator default:\n"
      "                     a temp dir, removed after the merge)\n"
      "  --merge            merge a completed --shard-dir, no simulation\n"
      "  --watch            follow --shard-dir live: per-shard progress\n"
      "                     bars until the sweep settles, then merge\n"
      "  --shard-count N    override the shard count (default: 4 per\n"
      "                     worker; more shards balance stragglers)\n"
      "  --max-reclaims N   retry strikes before a shard is quarantined\n"
      "                     as poisoned                              [3]\n"
      "  --allow-quarantined  merge past quarantined shards, reporting\n"
      "                     the precise missing run indices\n"
      "  --stale-after S    seconds without a heartbeat before a claim\n"
      "                     counts as abandoned                     [30]\n"
      "observability (see README \"Observability\"):\n"
      "  --metrics-out PATH write the metrics-registry snapshot, phase\n"
      "                     timers included (exp.unit_ns, dist.*_ns),\n"
      "                     as JSON on exit (%p in PATH expands to the\n"
      "                     pid, so coordinator-spawned workers write\n"
      "                     distinct files)\n"
      "  --trace-out PATH   also keep every timed phase as a span and\n"
      "                     write them as Chrome trace-event JSON on\n"
      "                     exit (%p = pid)\n"
      "  --probe-out PATH   single run only, not with --shards,\n"
      "                     --shard-index, --merge or --watch: sample\n"
      "                     per-cycle series (occupancy, delivered words,\n"
      "                     grants, stalls, energy split, per-port words)\n"
      "                     to a CSV; bit-identical to the unobserved run\n"
      "  --probe-stride N   sample every N cycles                   [64]\n"
      "  env: SFAB_LOG=error|warn|info|debug\n"
      "  --help             this text\n"
      "exit codes: 0 ok, 1 error, 2 sweep settled with quarantined\n"
      "shards (coordinator/watch), 3 worker finished but the sweep has\n"
      "quarantined shards\n";
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) items.push_back(item);
  if (items.empty()) items.push_back(text);
  return items;
}

template <class T, class Parse>
std::vector<T> parse_list(const std::string& text, Parse parse) {
  std::vector<T> values;
  for (const std::string& item : split_list(text)) {
    values.push_back(parse(item));
  }
  return values;
}

void print_single_run(const RunRecord& rec) {
  const SimConfig& c = rec.config;
  const SimResult& r = rec.result;
  std::cout << to_string(c.arch) << " " << c.ports << "x" << c.ports << ", "
            << to_string(c.pattern) << " traffic at "
            << format_percent(c.offered_load) << " offered load\n\n";
  TextTable t;
  t.set_header({"metric", "value"});
  t.add_row({"egress throughput", format_percent(r.egress_throughput)});
  t.add_row({"total power", format_power(r.power_w)});
  t.add_row({"  switches", format_power(r.switch_power_w)});
  t.add_row({"  buffers", format_power(r.buffer_power_w)});
  t.add_row({"  wires", format_power(r.wire_power_w)});
  t.add_row({"energy per bit", format_energy(r.energy_per_bit_j)});
  t.add_row({"mean packet latency",
             format_fixed(r.mean_packet_latency_cycles, 1) + " cycles"});
  t.add_row({"words buffered", std::to_string(r.words_buffered)});
  t.add_row({"  of which SRAM", std::to_string(r.sram_buffered_words)});
  t.add_row({"input-queue drops", std::to_string(r.input_queue_drops)});
  t.print(std::cout);
}

void print_summary(const ResultSet& results) {
  print_records(
      std::cout, results,
      {{"arch",
        [](const RunRecord& r) {
          return std::string(to_string(r.config.arch));
        }},
       {"ports",
        [](const RunRecord& r) { return std::to_string(r.config.ports); }},
       {"load",
        [](const RunRecord& r) {
          return format_percent(r.config.offered_load);
        }},
       {"rep",
        [](const RunRecord& r) { return std::to_string(r.replicate); }},
       {"throughput",
        [](const RunRecord& r) {
          return format_percent(r.result.egress_throughput);
        }},
       {"power",
        [](const RunRecord& r) { return format_power(r.result.power_w); }},
       {"energy/bit",
        [](const RunRecord& r) {
          return format_energy(r.result.energy_per_bit_j);
        }},
       {"latency", [](const RunRecord& r) {
          return format_fixed(r.result.mean_packet_latency_cycles, 1) +
                 " cyc";
        }}});
}

/// CSV file / stdout / table output, identical for local, sharded, and
/// merged sweeps. `csv_text` (when non-null) is written verbatim in place
/// of re-serializing `results` — merged fragments stay byte-identical to a
/// single-process write_csv.
void emit_results(const ResultSet& results, const std::string& csv_path,
                  const std::string* csv_text, const std::string& note) {
  if (!csv_path.empty()) {
    std::ostringstream fallback;
    if (csv_text == nullptr) write_csv(fallback, results);
    const std::string& text = csv_text ? *csv_text : fallback.str();
    if (csv_path == "-") {
      std::cout << text;
    } else {
      std::ofstream file(csv_path, std::ios::binary);
      if (!file) {
        throw std::runtime_error("cannot open " + csv_path + " for writing");
      }
      file << text;
      std::cerr << "wrote " << results.size() << " runs to " << csv_path
                << '\n';
    }
    return;
  }
  if (results.size() == 1) {
    print_single_run(results[0]);
  } else {
    std::cout << results.size() << " runs (" << note << ")\n\n";
    print_summary(results);
  }
}

/// One line per hole in a gap-tolerant merge: the exact missing indices.
void print_gap_report(const dist::MergeOutput& merged) {
  for (const dist::ShardGap& gap : merged.gaps) {
    if (gap.missing_begin >= gap.missing_end) continue;
    std::cerr << "sfab_cli: shard " << gap.key << " missing runs "
              << gap.missing_begin << ".." << gap.missing_end << " ("
              << gap.committed << " of " << gap.end - gap.begin
              << " recovered from its stream";
    if (gap.poison) {
      std::cerr << "; quarantined after " << gap.poison->reclaims
                << " retries";
      if (!gap.poison->reason.empty()) {
        std::cerr << ": " << gap.poison->reason;
      }
    }
    std::cerr << ")\n";
  }
}

/// Names the config a quarantined shard's suspect run would have
/// executed — the thing the operator must fix or exclude.
void print_poisoned_configs(const std::vector<RunPlan>& plans,
                            const std::vector<dist::PoisonRecord>& poisoned) {
  for (const dist::PoisonRecord& poison : poisoned) {
    std::cerr << "sfab_cli: shard " << poison.key
              << " quarantined at run " << poison.suspect;
    if (poison.suspect < plans.size()) {
      const SimConfig& c = plans[poison.suspect].config;
      std::cerr << " (" << to_string(c.arch) << " " << c.ports << "x"
                << c.ports << ", load " << c.offered_load << ", seed "
                << c.seed << ")";
    }
    if (!poison.reason.empty()) std::cerr << ": " << poison.reason;
    std::cerr << '\n';
  }
}

/// Expands every "%p" in an output path to this process's pid, so
/// coordinator-spawned workers given the same flag write distinct files.
std::string expand_pid(std::string path) {
  const std::string pid = std::to_string(::getpid());
  for (std::size_t at = path.find("%p"); at != std::string::npos;
       at = path.find("%p", at + pid.size())) {
    path.replace(at, 2, pid);
  }
  return path;
}

/// Writes the observability outputs on every exit path (including error
/// returns): the registry snapshot, phase timers included, to
/// --metrics-out and the captured spans to --trace-out. Failures warn,
/// never throw.
struct ObsOutputs {
  std::string metrics_path;
  std::string trace_path;

  ~ObsOutputs() {
    if (!metrics_path.empty()) {
      std::ofstream file(expand_pid(metrics_path), std::ios::binary);
      if (!file) {
        obs::log_warn("cli", "cannot open ", metrics_path,
                      " for the metrics snapshot");
      } else {
        file << "{\n  \"metrics\": ";
        obs::Registry::global().write_json(file, 2);
        file << "\n}\n";
      }
    }
    if (!trace_path.empty()) {
      std::ofstream file(expand_pid(trace_path), std::ios::binary);
      if (!file) {
        obs::log_warn("cli", "cannot open ", trace_path,
                      " for the trace export");
      } else {
        obs::Profiler::global().write_trace_json(file);
      }
    }
  }
};

/// validate() starts its message with the SimConfig field at fault; the
/// user typed the flag that sets it.
std::string name_flag(std::string message) {
  static constexpr std::pair<std::string_view, std::string_view> kFlagOf[] = {
      {"ports", "--ports"},
      {"offered_load", "--load"},
      {"packet_words", "--packet-words"},
      {"buffer_words_per_switch", "--buffer-words"},
      {"measure_cycles", "--cycles"},
      {"warmup_cycles", "--warmup"}};
  for (const auto& [field, flag] : kFlagOf) {
    if (message.starts_with(field) && message[field.size()] == ' ') {
      return message.replace(0, field.size(), flag);
    }
  }
  return message;
}

/// One line on stderr when a result cache was in play this sweep.
void print_cache_summary() {
  const auto& registry = obs::Registry::global();
  const std::uint64_t hits = registry.counter_value("exp.cache.hits");
  const std::uint64_t misses = registry.counter_value("exp.cache.misses");
  if (hits + misses == 0) return;  // no cache attached
  obs::log_info("cli", "cache: ", hits, " hits, ", misses, " misses, ",
                registry.counter_value("exp.cache.inserts"), " inserts");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfab;

  // The CLI is interactive: default the log level to info so worker and
  // coordinator progress is visible. SFAB_LOG still wins when set.
  if (std::getenv("SFAB_LOG") == nullptr) {
    obs::set_log_level(obs::LogLevel::kInfo);
  }

  SweepSpec spec;
  spec.base.ports = 16;
  spec.base.offered_load = 0.4;
  std::vector<RunPlan> plans;
  unsigned threads = 0;
  std::string csv_path;
  ObsOutputs obs_outputs;
  std::string probe_path;
  std::uint64_t probe_stride = 64;
  unsigned shards = 0;
  std::optional<unsigned> shard_index;  // set: run as worker I
  std::string shard_dir;
  bool merge_mode = false;
  bool watch_mode = false;
  bool allow_quarantined = false;
  unsigned max_reclaims = 3;
  std::size_t shard_count_override = 0;
  double stale_after_s = 30.0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(flag + " needs a value");
        }
        return argv[++i];
      };
      if (flag == "--help") {
        print_usage();
        return 0;
      } else if (flag == "--arch") {
        spec.architectures = parse_list<Architecture>(
            next(), [](const std::string& s) { return parse_architecture(s); });
      } else if (flag == "--ports") {
        spec.ports = parse_list<unsigned>(next(), [&](const std::string& s) {
          return parse_flag<unsigned>(flag, s);
        });
      } else if (flag == "--load") {
        spec.loads = parse_list<double>(next(), [&](const std::string& s) {
          return parse_flag<double>(flag, s);
        });
      } else if (flag == "--pattern") {
        spec.patterns = parse_list<TrafficPatternKind>(
            next(),
            [](const std::string& s) { return parse_traffic_pattern(s); });
      } else if (flag == "--payload") {
        spec.payloads = parse_list<PayloadKind>(
            next(), [](const std::string& s) { return parse_payload_kind(s); });
      } else if (flag == "--scheme") {
        spec.schemes = parse_list<RouterScheme>(
            next(),
            [](const std::string& s) { return parse_router_scheme(s); });
      } else if (flag == "--tech") {
        spec.tech_nodes = split_list(next());
        // Validate at parse time: an unknown node would otherwise surface
        // only when the sweep expands, without the list of valid presets.
        for (const std::string& node : spec.tech_nodes) {
          try {
            (void)TechnologyParams::preset(node);
          } catch (const std::invalid_argument&) {
            std::cerr << "sfab_cli: unknown --tech preset '" << node
                      << "'. Valid presets:";
            for (const std::string& known :
                 TechnologyParams::preset_names()) {
              std::cerr << ' ' << known;
            }
            std::cerr << '\n';
            return 1;
          }
        }
      } else if (flag == "--buffer-words") {
        spec.buffer_words =
            parse_list<unsigned>(next(), [&](const std::string& s) {
              return parse_flag<unsigned>(flag, s);
            });
      } else if (flag == "--packet-words") {
        spec.packet_words =
            parse_list<unsigned>(next(), [&](const std::string& s) {
              return parse_flag<unsigned>(flag, s);
            });
      } else if (flag == "--replicates") {
        spec.replicates = parse_flag<unsigned>(flag, next());
      } else if (flag == "--threads") {
        threads = parse_flag<unsigned>(flag, next());
      } else if (flag == "--cycles") {
        spec.base.measure_cycles = parse_flag<Cycle>(flag, next());
      } else if (flag == "--warmup") {
        spec.base.warmup_cycles = parse_flag<Cycle>(flag, next());
      } else if (flag == "--seed") {
        spec.base.seed = parse_flag<std::uint64_t>(flag, next());
      } else if (flag == "--skid") {
        spec.base.buffer_skid_words = parse_flag<unsigned>(flag, next());
      } else if (flag == "--dram") {
        spec.base.dram_buffers = true;
      } else if (flag == "--csv") {
        csv_path = next();
      } else if (flag == "--shards") {
        shards = parse_flag<unsigned>(flag, next());
        if (shards == 0) {
          throw std::invalid_argument("--shards must be >= 1");
        }
      } else if (flag == "--shard-index") {
        shard_index = parse_flag<unsigned>(flag, next());
      } else if (flag == "--shard-dir") {
        shard_dir = next();
      } else if (flag == "--merge") {
        merge_mode = true;
      } else if (flag == "--watch") {
        watch_mode = true;
      } else if (flag == "--allow-quarantined") {
        allow_quarantined = true;
      } else if (flag == "--max-reclaims") {
        max_reclaims = parse_flag<unsigned>(flag, next());
        if (max_reclaims == 0) {
          throw std::invalid_argument("--max-reclaims must be >= 1");
        }
      } else if (flag == "--shard-count") {
        shard_count_override = parse_flag<std::size_t>(flag, next());
        if (shard_count_override == 0) {
          throw std::invalid_argument("--shard-count must be >= 1");
        }
      } else if (flag == "--stale-after") {
        stale_after_s = parse_flag<double>(flag, next());
        if (!(stale_after_s > 0.0 && std::isfinite(stale_after_s))) {
          throw std::invalid_argument(
              "--stale-after must be a finite number of seconds > 0");
        }
      } else if (flag == "--metrics-out") {
        obs_outputs.metrics_path = next();
      } else if (flag == "--trace-out") {
        obs_outputs.trace_path = next();
        obs::Profiler::global().set_spans_enabled(true);
      } else if (flag == "--probe-out") {
        probe_path = next();
      } else if (flag == "--probe-stride") {
        probe_stride = parse_flag<std::uint64_t>(flag, next());
        if (probe_stride == 0) {
          throw std::invalid_argument("--probe-stride must be >= 1");
        }
      } else {
        throw std::invalid_argument("unknown option " + flag);
      }
    }
    // The sharded, merge and watch modes never run a probed simulation.
    if (!probe_path.empty() &&
        (shards > 0 || shard_index || merge_mode || watch_mode)) {
      throw std::invalid_argument(
          "--probe-out cannot be combined with --shards, --shard-index, "
          "--merge or --watch");
    }
    // Every run is validated here, so a bad grid fails before any run
    // starts or any worker is spawned.
    plans = spec.expand();
  } catch (const std::exception& error) {
    // Only a command line that does not parse or expand gets the usage
    // text.
    std::cerr << "sfab_cli: " << name_flag(error.what()) << "\n\n";
    print_usage();
    return 1;
  }

  try {
    // --- merge-only: reassemble a completed shard directory ---------------
    if (merge_mode) {
      if (shard_dir.empty()) {
        throw std::invalid_argument("--merge needs --shard-dir");
      }
      dist::MergeOptions merge_options;
      merge_options.allow_quarantined = allow_quarantined;
      const dist::MergeOutput merged =
          dist::merge_shards(shard_dir, merge_options);
      emit_results(merged.results, csv_path, &merged.csv_text, "merged");
      print_gap_report(merged);
      return merged.gaps.empty() ? 0 : 2;
    }

    // --- watch: follow a shard directory live, merge when it settles ------
    if (watch_mode) {
      if (shard_dir.empty()) {
        throw std::invalid_argument("--watch needs --shard-dir");
      }
      const dist::ShardLedger ledger(shard_dir, stale_after_s);
      for (;;) {
        dist::SweepStatus status;
        try {
          status = dist::sweep_status(ledger);
        } catch (const std::exception&) {
          std::cerr << "[watch] waiting for a published plan in "
                    << shard_dir << "\n";
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
          continue;
        }
        std::cerr << "[watch]\n";
        dist::render_status(std::cerr, status);
        if (status.settled) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
      }
      dist::MergeOptions merge_options;
      merge_options.allow_quarantined = allow_quarantined;
      const dist::MergeOutput merged =
          dist::merge_shards(shard_dir, merge_options);
      emit_results(merged.results, csv_path, &merged.csv_text, "watched");
      print_gap_report(merged);
      return merged.gaps.empty() ? 0 : 2;
    }

    // --- worker: claim and run shards until the sweep settles -------------
    if (shard_index) {
      if (shards == 0 || shard_dir.empty()) {
        throw std::invalid_argument(
            "--shard-index needs --shards (worker count) and --shard-dir");
      }
      dist::WorkerOptions options;
      options.threads = threads;
      options.stale_after_s = stale_after_s;
      options.worker_index = *shard_index;
      options.max_reclaims = max_reclaims;
      const std::size_t shard_count =
          shard_count_override != 0
              ? shard_count_override
              : dist::default_shard_count(spec.run_count(), shards);
      const dist::WorkerReport report =
          dist::run_worker(spec, shard_count, shard_dir, options);
      return report.sweep_quarantined ? 3 : 0;
    }

    // --- coordinator: spawn local workers, then merge ---------------------
    if (shards > 0) {
      const bool user_dir = !shard_dir.empty();
      if (!user_dir) {
        shard_dir = (std::filesystem::temp_directory_path() /
                     ("sfab-shards-" + std::to_string(::getpid())))
                        .string();
      }
      // Split the cores across workers unless the user pinned --threads.
      unsigned worker_threads = threads;
      if (worker_threads == 0) {
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        worker_threads = std::max(1u, hw / shards);
      }
      const std::vector<std::string> base_argv(argv, argv + argc);
      const auto worker_argv = [&](unsigned worker) {
        std::vector<std::string> child = base_argv;
        child.insert(child.end(),
                     {"--shard-index", std::to_string(worker)});
        if (!user_dir) {
          child.insert(child.end(), {"--shard-dir", shard_dir});
        }
        if (threads == 0) {
          child.insert(child.end(),
                       {"--threads", std::to_string(worker_threads)});
        }
        return child;
      };

      const std::size_t shard_count =
          shard_count_override != 0
              ? shard_count_override
              : dist::default_shard_count(spec.run_count(), shards);
      dist::CoordinatorOptions options;
      options.workers = shards;
      const dist::CoordinatorReport report =
          dist::ShardCoordinator(shard_dir, worker_argv)
              .run(shard_count, options);

      if (!report.poisoned.empty()) {
        // Settled, but some shards are quarantined: name the crashing
        // configs and exit 2. With --allow-quarantined, also emit what
        // survived plus the precise gap report.
        print_poisoned_configs(plans, report.poisoned);
        if (allow_quarantined) {
          dist::MergeOptions merge_options;
          merge_options.expected_fingerprint = dist::fingerprint_of(spec);
          merge_options.allow_quarantined = true;
          const dist::MergeOutput merged =
              dist::merge_shards(shard_dir, merge_options);
          emit_results(merged.results, csv_path, &merged.csv_text,
                       std::to_string(report.spawned) + " workers, " +
                           std::to_string(merged.gaps.size()) +
                           " quarantined shard(s)");
          print_gap_report(merged);
        }
        if (!user_dir) std::filesystem::remove_all(shard_dir);
        return 2;
      }

      const dist::MergeOutput merged =
          dist::merge_shards(shard_dir, dist::fingerprint_of(spec));
      emit_results(merged.results, csv_path, &merged.csv_text,
                   std::to_string(report.spawned) + " workers, " +
                       std::to_string(shard_count) + " shards");
      if (!user_dir) std::filesystem::remove_all(shard_dir);
      return 0;
    }

    // --- probed single run: per-cycle series sampled to a CSV -------------
    if (!probe_path.empty()) {
      if (spec.run_count() != 1) {
        throw std::invalid_argument(
            "--probe-out needs a single run (one value per flag, "
            "--replicates 1), got " + std::to_string(spec.run_count()));
      }
      // Only the reference engine takes an observer; it is bit-identical
      // to the packet engine.
      obs::ProbeRecorder recorder(probe_stride);
      std::vector<RunRecord> records(1);
      records[0].index = plans[0].index;
      records[0].replicate = plans[0].replicate;
      records[0].config = std::move(plans[0].config);
      records[0].result =
          run_reference_simulation(records[0].config, &recorder);
      {
        const std::string path = expand_pid(probe_path);
        std::ofstream file(path, std::ios::binary);
        if (!file) {
          throw std::runtime_error("cannot open " + path + " for writing");
        }
        recorder.write_csv(file);
        obs::log_info("cli", "wrote ", recorder.samples(),
                      " probe samples (stride ", probe_stride, ") to ",
                      path);
      }
      emit_results(ResultSet(std::move(records)), csv_path, nullptr,
                   "probed");
      return 0;
    }

    // --- plain single-process sweep ---------------------------------------
    const ResultSet results = run_sweep(spec, threads);
    // The pool never spawns more workers than there are runs.
    const std::size_t pool = std::min<std::size_t>(
        SweepRunner(threads).threads(), results.size());
    emit_results(results, csv_path, nullptr,
                 std::to_string(pool) + " threads");
    print_cache_summary();
  } catch (const std::exception& error) {
    std::cerr << "sfab_cli: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
