// Internal dispatch surface for the lane-engine pass kernels.
//
// The lane engine's hot loop popcounts two wire-flip masks per streamed
// word. The library is built for baseline x86-64, where std::popcount
// lowers to a ~15-op bit-hack that dominates the cycle loop; with the
// POPCNT instruction the same loop is several times faster. So the whole
// engine body (lane_sim_engine.ipp) is compiled twice: once portably
// (lane_sim_portable.cpp, always available and the only kernel on
// non-x86 hosts) and once in a TU with the per-TU -mpopcnt flag
// (lane_sim_popcnt.cpp, see CMakeLists.txt), reached only behind a
// runtime CPU-feature check. Both TUs run the identical statement
// sequence — same draws, same floating-point accumulation order — so
// results are bit-identical across kernels by construction.
#pragma once

#include <cstdint>

#include "sim/simulation.hpp"

namespace sfab::detail {

/// One <= 64-lane pass: out[k] = the SimResult of replicate `seeds[k]`.
/// The caller (run_lane_simulations) has already verified
/// lane_sim_supported(config) and chunked the seed list to <= 64 lanes.
using LanePassFn = void (*)(const SimConfig& config,
                            const std::uint64_t* seeds, unsigned lanes,
                            SimResult* out);

/// Baseline-ISA engine; never nullptr.
[[nodiscard]] LanePassFn lane_pass_portable() noexcept;

/// POPCNT-enabled engine; nullptr when the TU was built without -mpopcnt.
/// Callers must additionally confirm the running CPU has POPCNT before
/// invoking the returned function.
[[nodiscard]] LanePassFn lane_pass_popcnt() noexcept;

}  // namespace sfab::detail
