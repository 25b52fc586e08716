// Internal surface between run_simulation (lane_sim.cpp) and the packet
// engine's one translation unit (lane_sim_engine.cpp).
#pragma once

#include <cstddef>

#include "sim/simulation.hpp"

namespace sfab::detail {

/// Bytes per in-fabric word of the single-hop, banyan and mesh fabrics
/// (SingleHopStage::Flit, BanyanStages::Flit and MeshStages::Flit); the
/// footprint estimate in validate() charges link and FIFO planes at this
/// size.
inline constexpr std::size_t kStageFlitBytes = 16;

/// Bytes per (ring slot, row) of Batcher-Banyan's lockstep cohorts: the
/// packed uint64 row plus the BatcherStages::Flit delivery record.
inline constexpr std::size_t kBatcherRowBytes = 16;

/// One run of `config` under config.seed on the packet engine. The caller
/// (run_simulation) has already run validate(config).
[[nodiscard]] SimResult simulate(const SimConfig& config);

}  // namespace sfab::detail
