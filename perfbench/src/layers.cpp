// Per-layer metrics of a traced batch.
//
// Engine-call and sweep metrics come from the traced batch's spans. The
// layers the engine inlines (traffic, router, fabric, common) have no call
// boundary the benchmark can time inside a run, so they are replayed: the
// layer's public classes are driven directly, with inputs generated from
// the workload's own configs, in loops long enough that the clock is not
// what gets timed. The same holds for the gate-level rungs and the shard
// ledger's I/O.
#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>

#include "bench.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "dist/ledger.hpp"
#include "dist/shard_plan.hpp"
#include "exp/cache.hpp"
#include "exp/report.hpp"
#include "fabric/factory.hpp"
#include "gatelevel/lane_kernels.hpp"
#include "gatelevel/power_sim.hpp"
#include "gatelevel/switch_netlists.hpp"
#include "router/arbiter.hpp"
#include "router/voq.hpp"
#include "sim/lane_sim.hpp"
#include "traffic/generator.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sfab;

namespace {

/// Keeps `value` alive so the timed loop is not optimized away.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Calls `body` until `min_s` has passed; returns seconds per call.
template <class F>
double seconds_per_call(F&& body, double min_s) {
  std::size_t calls = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = now_s() - t0;
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

constexpr double kReplayS = 0.25;

TrafficGenerator make_traffic(const SimConfig& c) {  // as run_simulation
  switch (c.pattern) {
    case TrafficPatternKind::kUniform:
      return TrafficGenerator::uniform_bernoulli(
          c.ports, c.offered_load, c.packet_words, c.seed, c.payload);
    case TrafficPatternKind::kBitReversal:
      return TrafficGenerator::bit_reversal_permutation(
          c.ports, c.offered_load, c.packet_words, c.seed, c.payload);
    case TrafficPatternKind::kHotspot:
      return TrafficGenerator::hotspot(c.ports, c.offered_load,
                                       c.packet_words, c.hotspot_port,
                                       c.hotspot_fraction, c.seed, c.payload);
    case TrafficPatternKind::kBursty:
      return TrafficGenerator::bursty_uniform(c.ports, c.offered_load,
                                              c.packet_words,
                                              c.mean_burst_cycles, c.seed,
                                              c.payload);
  }
  throw std::invalid_argument("unknown traffic pattern");
}

/// ns per port-cycle of TrafficGenerator::poll_cycle over `configs`.
double poll_ns(const std::vector<SimConfig>& configs) {
  constexpr Cycle kCycles = 1000;
  double seconds = 0.0;
  double port_cycles = 0.0;
  while (seconds < kReplayS) {
    for (const SimConfig& c : configs) {
      TrafficGenerator gen = make_traffic(c);
      PacketArena arena;
      std::vector<Packet> out;
      const double t0 = now_s();
      for (Cycle now = 0; now < kCycles; ++now) {
        gen.poll_cycle(now, arena, out);
        for (const Packet& packet : out) arena.release(packet);
        out.clear();
      }
      seconds += now_s() - t0;
      port_cycles += static_cast<double>(c.ports) * kCycles;
    }
  }
  return seconds / port_cycles * 1e9;
}

/// ns per Arbiter::arbitrate with every ingress requesting (saturated
/// FIFO heads), uniform egresses.
double hol_arbitrate_ns(const std::set<unsigned>& port_counts,
                        std::uint64_t seed) {
  double total = 0.0;
  for (const unsigned ports : port_counts) {
    Rng rng(seed);
    std::vector<std::vector<ArbiterRequest>> cycles(256);
    for (auto& requests : cycles) {
      for (PortId i = 0; i < ports; ++i) {
        requests.push_back(ArbiterRequest{
            i, static_cast<PortId>(rng.next_below(ports)), rng.next_below(64)});
      }
    }
    Arbiter arbiter(ports);
    total += seconds_per_call(
        [&] {
          for (const auto& requests : cycles) keep(arbiter.arbitrate(requests).size());
        },
        kReplayS / static_cast<double>(port_counts.size())) /
        static_cast<double>(cycles.size());
  }
  return total / static_cast<double>(port_counts.size()) * 1e9;
}

/// ns per IslipArbiter::match_banks on banks filled to capacity with
/// uniform destinations, and matches per requesting ingress.
std::pair<double, double> islip_match(
    const std::set<std::pair<unsigned, std::size_t>>& shapes,
    std::uint64_t seed) {
  double ns = 0.0;
  double matched = 0.0;
  double requesting = 0.0;
  for (const auto& [ports, capacity] : shapes) {
    PacketArena arena;
    PacketFactory factory(1, PayloadKind::kZero, seed);
    Rng rng(seed);
    std::vector<VoqBank> banks;
    banks.reserve(ports);
    for (PortId i = 0; i < ports; ++i) {
      banks.emplace_back(i, ports, capacity, arena);
      for (std::size_t k = 0; k < capacity; ++k) {
        (void)banks.back().enqueue(factory.make(
            arena, i, static_cast<PortId>(rng.next_below(ports)), 0));
      }
    }
    std::vector<std::uint64_t> free_mask(bitmask_words(ports), 0);
    for (PortId p = 0; p < ports; ++p) set_bit(free_mask.data(), p);
    IslipArbiter islip(ports);
    for (const VoqBank& bank : banks) requesting += bank.empty() ? 0.0 : 1.0;
    matched += static_cast<double>(
        islip.match_banks(banks, free_mask, free_mask).size());
    ns += seconds_per_call(
              [&] { keep(islip.match_banks(banks, free_mask, free_mask).size()); },
              kReplayS / static_cast<double>(shapes.size())) *
          1e9;
  }
  return {ns / static_cast<double>(shapes.size()),
          requesting > 0.0 ? matched / requesting : 0.0};
}

class CountingSink final : public EgressSink {
 public:
  void deliver(PortId, const Flit& flit) override { sum_ += flit.data; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }

 private:
  std::uint64_t sum_ = 0;
};

/// ns per SwitchFabric::tick of `arch`, fed a destination-contention-free
/// permutation (ingress i -> i + 1) of packet streams at each config's
/// load.
double fabric_tick_ns(Architecture arch, const std::vector<SimConfig>& configs,
                      std::uint64_t seed) {
  constexpr Cycle kCycles = 2000;
  double seconds = 0.0;
  double ticks = 0.0;
  while (seconds < kReplayS / 2) {
    for (const SimConfig& c : configs) {
      FabricConfig fc;  // as run_simulation
      fc.ports = c.ports;
      fc.tech = c.tech;
      fc.switches = c.switches;
      fc.buffer_words_per_switch = c.buffer_words_per_switch;
      fc.buffer_skid_words = c.buffer_skid_words;
      fc.charge_buffer_read_and_write = c.charge_buffer_read_and_write;
      fc.dram_buffers = c.dram_buffers;
      fc.dram_retention_s = c.dram_retention_s;
      const std::unique_ptr<SwitchFabric> fabric = make_fabric(arch, fc);
      Rng rng(seed);
      const std::uint64_t start =
          Rng::bernoulli_threshold(c.offered_load / c.packet_words);
      std::vector<unsigned> left(c.ports, 0);
      std::uint64_t packet_id = 0;
      CountingSink sink;
      const double t0 = now_s();
      for (Cycle now = 0; now < kCycles; ++now) {
        for (PortId i = 0; i < c.ports; ++i) {
          if (left[i] == 0) {
            if (!rng.next_bernoulli_threshold(start)) continue;
            left[i] = c.packet_words;
            ++packet_id;
          }
          if (!fabric->can_accept(i)) continue;
          Flit flit;
          flit.data = rng.next_word();
          flit.dest = static_cast<PortId>((i + 1) % c.ports);
          flit.tail = left[i] == 1;
          flit.packet_id = packet_id * c.ports + i;
          flit.seq = c.packet_words - left[i];
          fabric->inject(i, flit);
          --left[i];
        }
        fabric->tick(sink);
      }
      seconds += now_s() - t0;
      ticks += kCycles;
      keep(sink.sum());
    }
  }
  return seconds / ticks * 1e9;
}

/// Lanes per arrival-coin word of the lane engine (its kLaneBlock).
constexpr unsigned kCoinLanes = 8;

/// ns per sfab::next_bernoulli_word over kCoinLanes generators at the
/// workload's per-cycle packet rates: the arrival-coin draw of the lane
/// engine's popcnt and portable units. Its AVX2 unit draws through a
/// vector kernel internal to sim instead.
double bernoulli_word_ns(const std::set<double>& rates, std::uint64_t seed) {
  std::vector<Rng> lanes;
  for (unsigned j = 0; j < kCoinLanes; ++j) {
    lanes.emplace_back(derive_stream_seed(seed, j));
  }
  std::uint64_t acc = 0;
  double total = 0.0;
  for (const double rate : rates) {
    const std::uint64_t threshold = Rng::bernoulli_threshold(rate);
    total += seconds_per_call(
        [&] {
          for (int k = 0; k < 1024; ++k) {
            acc ^= next_bernoulli_word(lanes.data(), kCoinLanes, threshold);
          }
        },
        kReplayS / static_cast<double>(rates.size())) /
        1024.0;
  }
  keep(acc);
  return total / static_cast<double>(rates.size()) * 1e9;
}

/// us per ResultCache::key_of over the workload's configs.
double cache_key_us(const std::vector<SimConfig>& configs) {
  return seconds_per_call(
             [&] {
               for (const SimConfig& c : configs) {
                 keep(ResultCache::key_of(c).size());
               }
             },
             kReplayS) /
         static_cast<double>(configs.size()) * 1e6;
}

/// ShardLedger::append_rows per row (us) and commit_fragment (ms), on a
/// scratch ledger with the workload's rows and shard-sized fragments.
std::pair<double, double> ledger_io(const std::string& dir,
                                    const std::vector<std::string>& rows,
                                    std::size_t shard_count) {
  fs::remove_all(dir);
  dist::ShardLedger ledger(dir);
  const double t0 = now_s();
  for (const std::string& row : rows) ledger.append_rows("0", {row});
  const double append_us =
      (now_s() - t0) / static_cast<double>(rows.size()) * 1e6;

  const std::size_t per_shard =
      std::max<std::size_t>(1, rows.size() / std::max<std::size_t>(1, shard_count));
  std::string fragment = csv_header() + '\n';
  for (std::size_t i = 0; i < per_shard && i < rows.size(); ++i) {
    fragment += rows[i];
    fragment += '\n';
  }
  std::vector<double> commits;
  for (int k = 0; k < 16; ++k) {
    const double c0 = now_s();
    ledger.commit_fragment(std::to_string(k), fragment);
    commits.push_back((now_s() - c0) * 1e3);
  }
  fs::remove_all(dir);
  return {append_us, median(commits)};
}

gatelevel::CharacterizationConfig rung_config(
    const LutArtifact::Generator& g, unsigned threads) {
  gatelevel::CharacterizationConfig cfg;  // as build_lut_artifact
  cfg.cycles = g.cycles;
  cfg.warmup = g.warmup;
  cfg.seed = g.seed;
  cfg.lanes = g.lanes;
  cfg.threads = threads;
  return cfg;
}

double mux_energy_scale(const std::string& preset) {
  return TechnologyParams::preset(preset).energy_scale_vs_reference();
}

std::vector<SimConfig> expanded(const std::vector<NamedSpec>& specs,
                                bool lane_units_only) {
  std::vector<SimConfig> configs;
  for (const NamedSpec& named : specs) {
    if (lane_units_only && named.spec.replicates < 2) continue;
    for (RunPlan& plan : named.spec.expand()) {
      if (lane_units_only && !lane_sim_supported(plan.config)) continue;
      configs.push_back(std::move(plan.config));
    }
  }
  return configs;
}

/// One config per distinct combination of the fields a replay reads.
std::vector<SimConfig> distinct(const std::vector<SimConfig>& configs) {
  std::vector<SimConfig> out;
  std::set<std::string> seen;
  for (const SimConfig& c : configs) {
    SimConfig k = c;
    k.seed = 0;
    if (seen.insert(ResultCache::key_of(k)).second) out.push_back(c);
  }
  return out;
}

}  // namespace

std::vector<Metric> layer_metrics(const Params& p, const BatchResult& plain,
                                  const BatchResult& traced,
                                  const BatchTrace& t) {
  const bool paper = p.workload == Workload::kPaper;
  const bool sharded = p.workload == Workload::kSharded;
  const std::vector<NamedSpec> specs =
      paper ? paper_specs(p.seed, p.toy)
            : std::vector<NamedSpec>{{"grid", grid_spec(p.seed, p.toy)}};
  const std::vector<SimConfig> configs = expanded(specs, false);
  const std::uint64_t seed = derive_stream_seed(0xB0B, p.seed);

  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  const auto counter = [&t](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  // --- sim ----------------------------------------------------------------
  double scalar_s = 0.0;
  double lane_s = 0.0;
  double port_cycles = 0.0;
  std::map<Architecture, double> arch_s;
  std::vector<double> call_ms;
  for (const UnitSample& u : t.units) {
    (u.lane ? lane_s : scalar_s) += u.seconds;
    arch_s[u.arch] += u.seconds;
    port_cycles += u.port_cycles;
    call_ms.push_back(u.seconds * 1e3);
  }
  double worker_cpu_s = 0.0;
  double worker_threads = 0.0;
  for (const WorkerTrace& w : t.workers) {
    worker_cpu_s += w.cpu_s;
    worker_threads += w.threads;
  }
  if (sharded) {
    // The workers' runner is out of the benchmark's reach: their CPU time
    // stands in for time inside run_lane_simulations.
    lane_s = worker_cpu_s;
    for (const SimConfig& c : configs) {
      port_cycles += static_cast<double>(c.ports) *
                     static_cast<double>(c.warmup_cycles + c.measure_cycles);
    }
  }
  const double engine_s = scalar_s + lane_s;
  add("sim.scalar.busy_s", scalar_s, "s");
  add("sim.lane.busy_s", lane_s, "s");
  for (const Architecture arch : extended_architectures()) {
    add("sim.busy_s." + std::string(to_string(arch)), arch_s[arch], "s");
  }
  add("sim.port_cycles_per_s", engine_s > 0.0 ? port_cycles / engine_s : 0.0,
      "1/s");
  const double tail = tail_percentile(call_ms.size());
  add("sim.run_ms_p50", percentile(call_ms, 50.0), "ms");
  add("sim.run_ms_tail", percentile(call_ms, tail), "ms");
  add("sim.run_ms_tail_pct", call_ms.empty() ? 0.0 : tail, "%");
  add("sim.run_samples", static_cast<double>(call_ms.size()), "count");
  const double passes = counter("sim.lane.laned_passes");
  add("sim.lane.lanes_per_pass",
      passes > 0.0 ? counter("sim.lane.laned_lanes") / passes : 0.0, "lanes");
  add("sim.lane.fallback_lanes", counter("sim.lane.fallback_lanes"), "count");

  // --- traffic, common, router, fabric --------------------------------------
  // The scalar engine drives TrafficGenerator, Arbiter, IslipArbiter and the
  // SwitchFabric classes; the lane engine runs its own fronts and staged
  // fabrics, so these replays belong to the paper workload only.
  const std::vector<SimConfig> scalar_inputs =
      paper ? distinct(configs) : std::vector<SimConfig>{};
  add("traffic.poll_ns", paper ? poll_ns(scalar_inputs) : 0.0, "ns");
  add("traffic.arena_high_water_words",
      counter("sim.arena.high_water_words"), "words");

  std::set<double> rates;
  for (const SimConfig& c : expanded(specs, true)) {
    rates.insert(std::min(1.0, c.offered_load / c.packet_words));
  }
  add("common.bernoulli_word_ns", rates.empty() ? 0.0 : bernoulli_word_ns(rates, seed),
      "ns");

  std::set<unsigned> fifo_ports;
  std::set<std::pair<unsigned, std::size_t>> voq_shapes;
  for (const SimConfig& c : scalar_inputs) {
    if (c.scheme == RouterScheme::kFifo) {
      fifo_ports.insert(c.ports);
    } else {
      voq_shapes.emplace(c.ports, c.ingress_queue_packets);
    }
  }
  add("router.hol.arbitrate_ns",
      fifo_ports.empty() ? 0.0 : hol_arbitrate_ns(fifo_ports, seed), "ns");
  const auto [islip_ns, islip_ratio] =
      voq_shapes.empty() ? std::pair<double, double>{0.0, 0.0}
                         : islip_match(voq_shapes, seed);
  add("router.islip.match_ns", islip_ns, "ns");
  add("router.islip.match_ratio", islip_ratio, "ratio");

  for (const Architecture arch : extended_architectures()) {
    std::vector<SimConfig> inputs;
    std::set<std::tuple<unsigned, double, unsigned>> seen;
    for (const SimConfig& c : scalar_inputs) {
      if (c.arch == arch &&
          seen.emplace(c.ports, c.offered_load, c.packet_words).second) {
        inputs.push_back(c);
      }
    }
    add("fabric.cycle_ns." + std::string(to_string(arch)),
        inputs.empty() ? 0.0 : fabric_tick_ns(arch, inputs, seed), "ns");
  }
  double sram = 0.0;
  double delivered = 0.0;
  double stalls = 0.0;
  double cycles = 0.0;
  const std::vector<SimResult>& results = traced.results;
  for (std::size_t i = 0; i < results.size() && i < configs.size(); ++i) {
    if (configs[i].arch != Architecture::kBanyan) continue;
    sram += static_cast<double>(results[i].sram_buffered_words);
    delivered += static_cast<double>(results[i].delivered_words);
    stalls += static_cast<double>(results[i].stall_cycles);
    cycles += static_cast<double>(results[i].measured_cycles);
  }
  add("fabric.sram_words_per_word.banyan", delivered > 0.0 ? sram / delivered : 0.0,
      "ratio");
  add("fabric.stalls_per_cycle.banyan", cycles > 0.0 ? stalls / cycles : 0.0,
      "ratio");

  // --- power, gatelevel ------------------------------------------------------
  add("power.artifact_load_ms", t.artifact_load_s * 1e3, "ms");
  add("gatelevel.ladder_s", t.ladder_s, "s");
  add("gatelevel.ladder_cpu_per_wall",
      t.ladder_s > 0.0 ? t.ladder_cpu_s / t.ladder_s : 0.0, "ratio");
  const LutBuildOptions ladder = ladder_options(p.toy, p.threads);
  const std::vector<std::string> presets =
      ladder.presets.empty() ? TechnologyParams::preset_names() : ladder.presets;
  for (unsigned n = 4; n <= kLadderTop; n *= 2) {
    double rung_s = 0.0;
    if (paper && n <= ladder.max_mux_inputs) {
      const gatelevel::CharacterizationConfig cfg =
          rung_config(ladder.generator, ladder.threads);
      for (const std::string& preset : presets) {
        gatelevel::SwitchHarness mux =
            gatelevel::build_mux(n, ladder.generator.bits_per_port);
        mux.netlist.set_energy_scale(mux_energy_scale(preset));
        const double t0 = now_s();
        keep(gatelevel::characterize_all_active(mux, cfg).energy_per_bit_j);
        rung_s += now_s() - t0;
      }
    }
    add("gatelevel.rung_s.mux" + std::to_string(n), rung_s, "s");
  }
  for (const gatelevel::LaneKernel kernel :
       {gatelevel::LaneKernel::kPortable, gatelevel::LaneKernel::kAvx2,
        gatelevel::LaneKernel::kAvx512}) {
    for (const unsigned n : {64u, 256u}) {
      double rate = 0.0;
      if (paper && gatelevel::lane_kernel_available(kernel)) {
        gatelevel::CharacterizationConfig cfg =
            rung_config(ladder.generator, 1);
        cfg.kernel = kernel;
        gatelevel::SwitchHarness mux =
            gatelevel::build_mux(n, ladder.generator.bits_per_port);
        mux.netlist.set_energy_scale(mux_energy_scale("0.18um"));
        const double s = seconds_per_call(
            [&] {
              keep(gatelevel::characterize_all_active(mux, cfg).energy_per_bit_j);
            },
            kReplayS / 2);
        rate = static_cast<double>(cfg.cycles) / s;
      }
      add("gatelevel.lane_cycles_per_s." +
              std::string(gatelevel::to_string(kernel)) + ".mux" +
              std::to_string(n),
          rate, "lane-cycles/s");
    }
  }

  // --- exp ------------------------------------------------------------------
  add("exp.expand_ms", t.expand_s * 1e3, "ms");
  // key_of runs per config in the paper workload's store and in every
  // fingerprint of the sharded one; the replicates sweep has no store.
  add("exp.cache.key_us",
      p.workload == Workload::kReplicates ? 0.0 : cache_key_us(configs), "us");
  add("exp.cache.hit_ratio",
      t.cache_lookups > 0 ? static_cast<double>(t.cache_hits) /
                                static_cast<double>(t.cache_lookups)
                          : 0.0,
      "ratio");
  add("exp.runner.idle_frac",
      !sharded && t.sweep_s > 0.0
          ? 1.0 - engine_s / (static_cast<double>(p.threads) * t.sweep_s)
          : 0.0,
      "ratio");

  // --- dist -------------------------------------------------------------------
  double first_exit = 0.0;
  double last_exit = 0.0;
  for (const WorkerTrace& w : t.workers) {
    first_exit = first_exit == 0.0 ? w.end : std::min(first_exit, w.end);
    last_exit = std::max(last_exit, w.end);
  }
  add("dist.merge_s", t.merge_s, "s");
  add("dist.idle_frac",
      sharded && t.coordinator_s > 0.0 && worker_threads > 0.0
          ? 1.0 - worker_cpu_s / (worker_threads * t.coordinator_s)
          : 0.0,
      "ratio");
  add("dist.tail_s", last_exit - first_exit, "s");
  add("dist.claims", counter("dist.ledger.claims"), "count");
  add("dist.splits", counter("dist.ledger.splits"), "count");
  add("dist.commits", counter("dist.ledger.commits"), "count");
  add("dist.reclaims", counter("dist.ledger.reclaims"), "count");
  std::pair<double, double> io{0.0, 0.0};
  if (sharded) {
    std::vector<std::string> rows;
    for (const Chunk& chunk : traced.chunks) {
      rows.insert(rows.end(), chunk.rows.begin(), chunk.rows.end());
    }
    if (!rows.empty()) {
      io = ledger_io((fs::path(p.work_dir) / "replay-ledger").string(), rows,
                     dist::default_shard_count(
                         rows.size(), shard_layout(p.threads).workers));
    }
  }
  add("dist.append_us", io.first, "us");
  add("dist.commit_ms", io.second, "ms");

  add("bench.trace_overhead_s", traced.wall_s - plain.wall_s, "s");
  return m;
}

}  // namespace perfbench
