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
// Coverage: every config validate() (sim/simulation.hpp) accepts. One
// engine loop runs a staged fabric (one stage for crossbar and
// fully-connected; Batcher-Banyan, banyan and mesh stages) behind either
// the VOQ/iSLIP or the FIFO/HOL ingress front, for every traffic pattern,
// at 2..64 ports. run_simulation validates first and never switches
// engines: a config outside the engine's envelope (above 64 ports, the
// 2^20 caps, the 2^30-cycle horizon, a state footprint above 512 MiB) is
// rejected like one the reference constructors reject. (The lane_sim
// names date from when one call ran several replicates as lanes.)
#pragma once

#include <string_view>

#include "sim/simulation.hpp"

namespace sfab {

/// Which engine the sweep runner uses. Mirrors gatelevel's
/// CharacterizeEngine: the reference engine stays as the bit-exact oracle
/// the packet engine is pinned against.
enum class ReplicateEngine {
  kScalar,  ///< run_reference_simulation per record (the oracle)
  kLaned,   ///< run_simulation: the packet engine
};

/// True when validate(config) accepts `config`, i.e. run_simulation runs
/// it rather than throwing.
[[nodiscard]] bool lane_sim_supported(const SimConfig& config) noexcept;

/// How this build compiled the packet engine's popcounts: "popcnt" when
/// the ISA baseline has the instruction (x86-64-v2 does), "portable"
/// otherwise. A compile-time constant; benchmark provenance.
[[nodiscard]] std::string_view lane_sim_kernel_name() noexcept;

}  // namespace sfab
