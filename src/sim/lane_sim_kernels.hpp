// Internal surface between run_simulation (lane_sim.cpp) and the packet
// engine's one translation unit (lane_sim_engine.cpp).
#pragma once

#include <cstddef>

#include "sim/simulation.hpp"

namespace sfab::detail {

/// Bytes per in-fabric word of the staged fabrics (BatcherStages::Flit,
/// BanyanStages::Flit and MeshStages::Flit); the footprint estimate in
/// lane_sim_fallback_reason() charges link and FIFO planes at this size.
inline constexpr std::size_t kStageFlitBytes = 16;

/// One run of `config` under config.seed on the packet engine. The caller
/// (run_simulation) has already verified lane_sim_supported(config).
[[nodiscard]] SimResult simulate(const SimConfig& config);

}  // namespace sfab::detail
