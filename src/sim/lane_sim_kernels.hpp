// Internal dispatch surface for the packet-engine kernels.
//
// The engine's hot loop popcounts two wire-flip masks per streamed word.
// The library is built for baseline x86-64, where std::popcount lowers to
// a ~15-op bit-hack that dominates the cycle loop; with the POPCNT
// instruction the same loop is several times faster. So the whole engine
// body (lane_sim_engine.ipp) is compiled twice: once portably
// (lane_sim_portable.cpp, always available and the only kernel on non-x86
// hosts) and once in a TU with the per-TU -mpopcnt flag
// (lane_sim_popcnt.cpp, see CMakeLists.txt), reached only behind a runtime
// CPU-feature check. Both TUs run the identical statement sequence — same
// draws, same floating-point accumulation order — so results are
// bit-identical across kernels by construction.
#pragma once

#include <cstddef>

#include "sim/simulation.hpp"

namespace sfab::detail {

/// Bytes per in-fabric word of the staged fabrics (BatcherStages::Flit,
/// BanyanStages::Flit and MeshStages::Flit); the footprint estimate in
/// lane_sim_fallback_reason() charges link and FIFO planes at this size.
inline constexpr std::size_t kStageFlitBytes = 16;

/// One run of `config` under config.seed. The caller (run_simulation) has
/// already verified lane_sim_supported(config).
using EngineFn = SimResult (*)(const SimConfig& config);

/// Baseline-ISA engine; never nullptr.
[[nodiscard]] EngineFn engine_portable() noexcept;

/// POPCNT-enabled engine; nullptr when the TU was built without -mpopcnt.
/// Callers must additionally confirm the running CPU has POPCNT before
/// invoking the returned function.
[[nodiscard]] EngineFn engine_popcnt() noexcept;

}  // namespace sfab::detail
