// The packet engine: the production simulator behind run_simulation, and
// through it replicate() and every SweepRunner unit. One call runs one
// SimConfig under its own seed (config.seed); replicates are repeated
// calls under derived seeds. The engine is one translation unit
// (lane_sim_engine.cpp), compiled once for the library's ISA baseline.
//
// Its speed comes from a leaner design than the reference
// Router/SwitchFabric objects: router state kept as mask words (VOQ
// occupancy rows, iSLIP request/grant/accept masks, streaming and
// availability masks) and flat port-indexed arrays. Each run reproduces
// run_reference_simulation's SimResult bit for bit: same draws in the
// same order, same floating-point accumulation order per accumulator.
//
// Coverage: every (architecture, scheme) cell of the sweep grid — one
// engine loop over a staged fabric (one stage for crossbar and
// fully-connected; Batcher-Banyan, banyan and mesh stages), behind either
// the VOQ/iSLIP or the FIFO/HOL ingress front, for every traffic
// pattern. Configurations outside that envelope (> 64 ports, a non-square
// mesh, oversized state footprints, observed runs, configs the reference
// constructors reject) run on run_reference_simulation behind the same
// run_simulation call, so callers never branch on support;
// lane_sim_fallback_reason() names why a config falls back and the
// sim.lane.fallback.* counters tally each reason. (The lane_sim names date
// from when one call ran several replicates as lanes.)
#pragma once

#include <string_view>

#include "sim/simulation.hpp"

namespace sfab {

/// Which engine the sweep runner uses. Mirrors gatelevel's
/// CharacterizeEngine: the reference engine stays as the bit-exact oracle
/// the packet engine is pinned against.
enum class ReplicateEngine {
  kScalar,  ///< run_reference_simulation per record (the oracle)
  kLaned,   ///< run_simulation: the packet engine, reference fallback
};

/// Why a config falls back to a reference run. kNone = packet engine.
/// Each non-none reason has a matching sim.lane.fallback.<reason> counter;
/// kObserver is a call-site condition (observed runs), never returned by
/// lane_sim_fallback_reason().
enum class LaneFallbackReason {
  kNone,         ///< runs on the packet engine
  kArch,         ///< architecture not covered (none today)
  kScheme,       ///< router scheme not covered (none today)
  kPorts,        ///< ports outside 2..64, or not the pow2 / square needed
  kPacketWords,  ///< packet_words outside 1..2^20
  kQueue,        ///< ingress_queue_packets outside 1..2^20
  kMeasure,      ///< measure_cycles == 0 (the reference engine throws)
  kPattern,      ///< pattern parameters the reference constructors reject
  kRate,         ///< offered load outside the pattern's valid range
  kFootprint,    ///< one run's state would exceed the memory cap
  kObserver,     ///< observed run (the packet engine has no observer hook)
};

[[nodiscard]] std::string_view to_string(LaneFallbackReason reason) noexcept;

/// Why `config` would fall back (kNone = it runs on the packet engine).
/// Configurations the reference constructors reject (bad rates, patterns,
/// cycle counts) also report a reason so the fallback surfaces the
/// reference exception.
[[nodiscard]] LaneFallbackReason lane_sim_fallback_reason(
    const SimConfig& config) noexcept;

/// True when `config` runs on the packet engine — every (arch, scheme)
/// cell of the sweep grid, 2..64 ports (a power of two for the
/// banyan-class fabrics, a square for mesh), and a state footprint the
/// array layout can hold. False routes run_simulation() to the
/// reference (results are identical either way; only wall-clock differs).
/// Equivalent to lane_sim_fallback_reason() == kNone.
[[nodiscard]] bool lane_sim_supported(const SimConfig& config) noexcept;

/// How this build compiled the packet engine's popcounts: "popcnt" when
/// the ISA baseline has the instruction (x86-64-v2 does), "portable"
/// otherwise. A compile-time constant; benchmark provenance.
[[nodiscard]] std::string_view lane_sim_kernel_name() noexcept;

}  // namespace sfab
