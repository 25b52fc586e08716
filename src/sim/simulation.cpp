#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/probe.hpp"
#include "obs/registry.hpp"
#include "router/voq_router.hpp"

namespace sfab {

std::string_view to_string(TrafficPatternKind kind) noexcept {
  switch (kind) {
    case TrafficPatternKind::kUniform:
      return "uniform";
    case TrafficPatternKind::kBitReversal:
      return "bit-reversal";
    case TrafficPatternKind::kHotspot:
      return "hotspot";
    case TrafficPatternKind::kBursty:
      return "bursty";
  }
  return "unknown";
}

TrafficPatternKind parse_traffic_pattern(std::string_view name) {
  for (const TrafficPatternKind kind :
       {TrafficPatternKind::kUniform, TrafficPatternKind::kBitReversal,
        TrafficPatternKind::kHotspot, TrafficPatternKind::kBursty}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("parse_traffic_pattern: unknown pattern \"" +
                              std::string(name) + "\"");
}

std::string_view to_string(RouterScheme scheme) noexcept {
  switch (scheme) {
    case RouterScheme::kFifo:
      return "fifo";
    case RouterScheme::kVoq:
      return "voq";
  }
  return "unknown";
}

RouterScheme parse_router_scheme(std::string_view name) {
  for (const RouterScheme scheme : {RouterScheme::kFifo, RouterScheme::kVoq}) {
    if (name == to_string(scheme)) return scheme;
  }
  throw std::invalid_argument("parse_router_scheme: unknown scheme \"" +
                              std::string(name) + "\"");
}

namespace {

TrafficGenerator make_traffic(const SimConfig& c) {
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
  throw std::invalid_argument("make_traffic: unknown pattern");
}

FabricConfig make_fabric_config(const SimConfig& config) {
  FabricConfig fc;
  fc.ports = config.ports;
  fc.tech = config.tech;
  fc.switches = config.switches;
  fc.buffer_words_per_switch = config.buffer_words_per_switch;
  fc.buffer_skid_words = config.buffer_skid_words;
  fc.charge_buffer_read_and_write = config.charge_buffer_read_and_write;
  fc.dram_buffers = config.dram_buffers;
  fc.dram_retention_s = config.dram_retention_s;
  return fc;
}

/// Runs `cycles` cycles, sampling for `observer` at its stride (and on
/// the final cycle of the window). Sampling only reads counters the
/// simulation maintains anyway, so observation never changes a result.
template <class AnyRouter>
void run_observed(AnyRouter& router, Cycle cycles, const SimConfig& config,
                  obs::SimObserver& observer) {
  const std::uint64_t stride = std::max<std::uint64_t>(1, observer.stride());
  for (Cycle c = 0; c < cycles; ++c) {
    router.step();
    if (router.now() % stride != 0 && c + 1 != cycles) continue;
    obs::CycleSample sample;
    sample.cycle = router.now();
    sample.queued_packets = router.total_queued();
    // Packets are fixed-length in this harness, so ingress occupancy in
    // words is exact, not modeled.
    sample.queued_words =
        sample.queued_packets * std::uint64_t{config.packet_words};
    sample.delivered_words = router.egress().words_delivered();
    sample.delivered_packets = router.egress().packets_delivered();
    sample.grants = router.grants();
    sample.stall_cycles = router.fabric().stall_cycles();
    sample.buffered_words = router.fabric().words_buffered();
    const EnergyLedger& ledger = router.fabric().ledger();
    sample.switch_energy_j = ledger.of(EnergyKind::kSwitch);
    sample.buffer_energy_j = ledger.of(EnergyKind::kBuffer);
    sample.wire_energy_j = ledger.of(EnergyKind::kWire);
    const auto& per_port = router.egress().words_per_port();
    sample.words_per_port = per_port.data();
    sample.ports = static_cast<unsigned>(per_port.size());
    observer.on_cycle(sample);
  }
}

/// Warm-up / measure / report, identical for both router schemes (Router
/// and VoqRouter expose the same measurement surface without sharing a
/// base class).
template <class AnyRouter>
SimResult measure(AnyRouter& router, const SimConfig& config,
                  obs::SimObserver* observer = nullptr) {
  // Warm-up: reach steady state, then zero the meters.
  if (observer != nullptr) {
    observer->on_run_begin(config.ports);
    run_observed(router, config.warmup_cycles, config, *observer);
  } else {
    router.run(config.warmup_cycles);
  }
  router.fabric().reset_energy();
  router.egress().reset_counters();
  const std::uint64_t drops_before = router.total_drops();
  const std::uint64_t buffered_before = router.fabric().words_buffered();
  const std::uint64_t sram_before = router.fabric().sram_words_buffered();
  const std::uint64_t stalls_before = router.fabric().stall_cycles();

  if (observer != nullptr) {
    run_observed(router, config.measure_cycles, config, *observer);
  } else {
    router.run(config.measure_cycles);
  }

  const EnergyLedger& ledger = router.fabric().ledger();
  const double duration_s =
      static_cast<double>(config.measure_cycles) * config.tech.cycle_time_s();

  SimResult r;
  r.arch = config.arch;
  r.ports = config.ports;
  r.offered_load = config.offered_load;
  r.measured_cycles = config.measure_cycles;

  r.delivered_words = router.egress().words_delivered();
  r.delivered_packets = router.egress().packets_delivered();
  r.egress_throughput = router.egress().throughput(config.measure_cycles);
  r.input_queue_drops = router.total_drops() - drops_before;
  r.mean_packet_latency_cycles = router.egress().mean_packet_latency();

  r.power_w = ledger.total() / duration_s;
  r.switch_power_w = ledger.of(EnergyKind::kSwitch) / duration_s;
  r.buffer_power_w = ledger.of(EnergyKind::kBuffer) / duration_s;
  r.wire_power_w = ledger.of(EnergyKind::kWire) / duration_s;
  const double delivered_bits =
      static_cast<double>(r.delivered_words) * config.tech.bus_width;
  r.energy_per_bit_j =
      delivered_bits > 0.0 ? ledger.total() / delivered_bits : 0.0;

  r.words_buffered = router.fabric().words_buffered() - buffered_before;
  r.sram_buffered_words =
      router.fabric().sram_words_buffered() - sram_before;
  r.stall_cycles = router.fabric().stall_cycles() - stalls_before;

  if (observer != nullptr) observer->on_run_end(router.now());

  static obs::Gauge& arena_high_water =
      obs::Registry::global().gauge("sim.arena.high_water_words");
  arena_high_water.observe_max(router.arena().slab_words());
  return r;
}

}  // namespace

SimResult run_reference_simulation(const SimConfig& config,
                                   obs::SimObserver* observer) {
  if (config.measure_cycles == 0) {
    throw std::invalid_argument("run_simulation: measure_cycles >= 1");
  }

  const FabricConfig fabric_config = make_fabric_config(config);

  switch (config.scheme) {
    case RouterScheme::kFifo: {
      Router router(make_fabric(config.arch, fabric_config),
                    make_traffic(config),
                    RouterConfig{config.ingress_queue_packets});
      return measure(router, config, observer);
    }
    case RouterScheme::kVoq: {
      VoqRouter router(
          make_fabric(config.arch, fabric_config), make_traffic(config),
          VoqRouterConfig{config.ingress_queue_packets,
                          config.islip_iterations});
      return measure(router, config, observer);
    }
  }
  throw std::invalid_argument("run_simulation: unknown router scheme");
}

}  // namespace sfab
