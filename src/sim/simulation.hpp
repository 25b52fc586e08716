// One-call simulation harness: configure, run, get measurements.
//
// This replaces the paper's Simulink platform. A run executes a warm-up
// window (energy and counters then reset so measurements capture steady
// state), measures for the configured window, and reports throughput,
// power split by component, energy per bit and latency. validate() is
// the one admission rule for a config; run_simulation validates, then
// runs the packet engine (sim/lane_sim.hpp), one run per call.
// run_reference_simulation builds the traffic generator, router and
// fabric objects and steps them. The reference is written plainly, for
// reading rather than speed: it is what the packet engine is pinned
// against.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/factory.hpp"
#include "power/ledger.hpp"
#include "router/router.hpp"
#include "traffic/generator.hpp"

namespace sfab {

/// Traffic shapes available to experiments.
enum class TrafficPatternKind {
  kUniform,      ///< Bernoulli arrivals, uniform random destinations (paper)
  kBitReversal,  ///< fixed bit-reversal permutation flows
  kHotspot,      ///< a fraction of packets converge on one port
  kBursty,       ///< Markov on/off arrivals, uniform destinations
};

[[nodiscard]] std::string_view to_string(TrafficPatternKind kind) noexcept;

/// Inverse of to_string(TrafficPatternKind); throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] TrafficPatternKind parse_traffic_pattern(std::string_view name);

/// Which input-queueing scheme drives the fabric.
enum class RouterScheme {
  kFifo,  ///< FCFS input queues, head-of-line blocking (paper's scheme)
  kVoq,   ///< virtual output queues + iSLIP (framework extension)
};

[[nodiscard]] std::string_view to_string(RouterScheme scheme) noexcept;

/// Inverse of to_string(RouterScheme); throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] RouterScheme parse_router_scheme(std::string_view name);

struct SimConfig {
  Architecture arch = Architecture::kCrossbar;
  unsigned ports = 16;
  /// Offered load in words per port per cycle (fraction of line rate).
  double offered_load = 0.5;
  /// Packet length in bus words including the header word. 16 words of a
  /// 32-bit bus = 64-byte cells.
  unsigned packet_words = 16;
  Cycle warmup_cycles = 2'000;
  Cycle measure_cycles = 20'000;
  std::uint64_t seed = 1;
  PayloadKind payload = PayloadKind::kRandom;
  TrafficPatternKind pattern = TrafficPatternKind::kUniform;
  /// Hotspot parameters (pattern == kHotspot).
  double hotspot_fraction = 0.3;
  PortId hotspot_port = 0;
  /// Bursty parameter (pattern == kBursty): mean burst length in cycles.
  double mean_burst_cycles = 200.0;

  TechnologyParams tech{};
  SwitchEnergyTables switches = SwitchEnergyTables::paper_defaults();
  unsigned buffer_words_per_switch = 128;  ///< 4 Kbit at 32-bit bus
  /// Bypass slots ahead of the node SRAM (see FabricConfig).
  unsigned buffer_skid_words = 1;
  bool charge_buffer_read_and_write = true;
  /// DRAM-backed node buffers: adds Eq. 1's continuous refresh power.
  bool dram_buffers = false;
  double dram_retention_s = 64e-3;
  std::size_t ingress_queue_packets = 64;
  /// Input-queueing scheme in front of the fabric.
  RouterScheme scheme = RouterScheme::kFifo;
  /// iSLIP rounds per cycle when scheme == kVoq (0 = iterate to maximal).
  unsigned islip_iterations = 0;
};

/// The one admission rule for a SimConfig. Throws std::invalid_argument,
/// its message starting with the name of the field at fault, for every
/// config a reference constructor rejects and for every config outside
/// the packet engine's envelope (above 64 ports, packet, queue or FIFO
/// sizes above 2^20, the 2^30-cycle horizon, a state footprint above 512
/// MiB). SweepSpec::expand() calls it on every plan, before any run
/// starts or any worker is spawned.
void validate(const SimConfig& config);

struct SimResult {
  // --- identification --------------------------------------------------------
  Architecture arch{};
  unsigned ports = 0;
  double offered_load = 0.0;

  // --- traffic ---------------------------------------------------------------
  /// Measured egress throughput, words per port per cycle.
  double egress_throughput = 0.0;
  std::uint64_t delivered_words = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t input_queue_drops = 0;
  double mean_packet_latency_cycles = 0.0;

  // --- power -------------------------------------------------------------------
  double power_w = 0.0;
  double switch_power_w = 0.0;
  double buffer_power_w = 0.0;
  double wire_power_w = 0.0;
  /// Average fabric energy per delivered payload bit (J).
  double energy_per_bit_j = 0.0;

  // --- fabric internals (Banyan-class) ----------------------------------------
  std::uint64_t words_buffered = 0;
  /// Subset of words_buffered that overflowed the skid slots into shared
  /// SRAM and paid access energy.
  std::uint64_t sram_buffered_words = 0;
  std::uint64_t stall_cycles = 0;

  Cycle measured_cycles = 0;
};

namespace obs {
class SimObserver;
}

/// Runs one simulation under config.seed to completion and returns its
/// measurements: validate(config), then the packet engine
/// (sim/lane_sim.hpp; defined in lane_sim.cpp), counted in the
/// sim.lane.laned_* counters. Side-effect-free: concurrent calls with
/// independent configs are safe, which is what exp/SweepRunner exploits.
[[nodiscard]] SimResult run_simulation(const SimConfig& config);

/// The reference engine: one Router or VoqRouter over a SwitchFabric,
/// stepped cycle by cycle, with plain scans and std::deque queues. It is
/// the oracle the packet engine is pinned against bit for bit, and the
/// engine behind observed runs: `observer` (nullable) receives a
/// CycleSample every observer->stride() cycles across warmup and
/// measurement. Observation is passive — the returned SimResult is
/// bit-identical to the unobserved run (tests/test_obs_identity.cpp). Its
/// constructors keep their own checks, so it needs no validate().
[[nodiscard]] SimResult run_reference_simulation(
    const SimConfig& config, obs::SimObserver* observer = nullptr);

// Sweeps over SimConfig axes live in the experiment layer: see
// exp/spec.hpp (SweepSpec) and exp/runner.hpp (SweepRunner,
// sweep_offered_load).

}  // namespace sfab
