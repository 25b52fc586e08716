// The lane engine: the production packet simulator behind
// run_simulation, replicate() and every SweepRunner unit. One pass runs
// up to 64 independent replicates of one SimConfig, each lane under its
// own seed.
//
// It is not bit-parallel. Lanes are stepped one at a time, in blocks of 8
// lanes that run lock-step through the cycle range; only the Bernoulli
// arrival coins are batched across a block (RngLanes::coin, one threshold
// word per port per cycle). Its speed comes from a leaner design than the
// reference Router/SwitchFabric objects: per-lane router state kept as
// mask words (VOQ occupancy rows, iSLIP request/grant/accept masks,
// streaming and availability masks), flat lane-indexed arrays, and a
// deferred energy ledger. Each lane reproduces
// run_reference_simulation's SimResult bit for bit: same draws in the
// same order, same floating-point accumulation order per accumulator.
//
// Coverage: every (architecture, scheme) cell of the sweep grid except
// mesh — crossbar and fully-connected through the fused single-hop
// engine, Batcher-Banyan and banyan through the staged multi-hop engine,
// each behind either the VOQ/iSLIP or the FIFO/HOL ingress front, for
// every traffic pattern. Configurations outside that envelope (mesh,
// > 64 ports, oversized state footprints, observed runs, configs the
// reference constructors reject) run per lane on
// run_reference_simulation behind the same interface, so callers never
// branch on support; lane_sim_fallback_reason() names why a config falls
// back and the sim.lane.fallback.* counters tally each reason.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"

namespace sfab {

/// Which engine replicate() and the sweep runner use. Mirrors gatelevel's
/// CharacterizeEngine: the reference engine stays as the bit-exact oracle
/// the lane engine is pinned against.
enum class ReplicateEngine {
  kScalar,  ///< one run_reference_simulation per seed (the oracle)
  kLaned,   ///< lane engine, reference fallback where unsupported
};

/// Why a config falls back to per-lane reference runs. kNone = laned. Each
/// non-none reason has a matching sim.lane.fallback.<reason> counter;
/// kObserver is a call-site condition (observed runs), never returned by
/// lane_sim_fallback_reason().
enum class LaneFallbackReason {
  kNone,         ///< runs on the lane engine
  kArch,         ///< architecture not laned (mesh)
  kScheme,       ///< router scheme not laned (none today)
  kPorts,        ///< ports outside 2..64, or not a pow2 the fabric needs
  kPacketWords,  ///< packet_words outside 1..2^20
  kQueue,        ///< ingress_queue_packets outside 1..2^20
  kMeasure,      ///< measure_cycles == 0 (the reference engine throws)
  kPattern,      ///< pattern parameters the reference constructors reject
  kRate,         ///< offered load outside the pattern's valid range
  kFootprint,    ///< 64-lane plane state would exceed the memory cap
  kObserver,     ///< observed run (the lane engine has no observer hook)
};

[[nodiscard]] std::string_view to_string(LaneFallbackReason reason) noexcept;

/// Why `config` would fall back (kNone = it runs laned). Configurations
/// the reference constructors reject (bad rates, patterns, cycle counts)
/// also report a reason so the fallback surfaces the reference exception.
[[nodiscard]] LaneFallbackReason lane_sim_fallback_reason(
    const SimConfig& config) noexcept;

/// True when `config` runs on the lane engine — every (arch, scheme) cell
/// of the sweep grid except mesh, 2..64 ports, and a state footprint the
/// plane layout can hold. False routes run_lane_simulations() through
/// per-lane reference runs (results are identical either way; only
/// wall-clock differs). Equivalent to lane_sim_fallback_reason() == kNone.
[[nodiscard]] bool lane_sim_supported(const SimConfig& config) noexcept;

/// Runs one replicate per entry of `lane_seeds`: result[k] is bit-identical
/// to run_reference_simulation(config with seed = lane_seeds[k]) — same
/// counters, same floating-point sums. More than 64 seeds run as
/// successive lane passes; unsupported configs run per lane on the
/// reference. Throws exactly where the reference throws (invalid rates,
/// patterns, cycle counts).
[[nodiscard]] std::vector<SimResult> run_lane_simulations(
    const SimConfig& config, const std::vector<std::uint64_t>& lane_seeds);

/// Observed variant: a non-null `observer` watches lane 0's run at cycle
/// resolution. The lane engine has no observer hook, so observation
/// routes the whole batch through per-lane reference runs — results stay
/// bit-identical (the reference is pinned to the lane engine by the fuzz
/// harness), only wall-clock differs.
[[nodiscard]] std::vector<SimResult> run_lane_simulations(
    const SimConfig& config, const std::vector<std::uint64_t>& lane_seeds,
    obs::SimObserver* observer);

/// Name of the lane-pass kernel runtime dispatch selects on this build +
/// CPU ("popcnt" or "portable"); bench provenance.
[[nodiscard]] std::string_view lane_sim_kernel_name() noexcept;

}  // namespace sfab
