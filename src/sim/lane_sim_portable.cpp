// Baseline-ISA packet engine: always available, and the only kernel on
// non-x86 hosts. The engine body is shared with the POPCNT TU
// (lane_sim_engine.ipp); this TU compiles it under the library's default
// flags only.
#include "sim/lane_sim_engine.ipp"
#include "sim/lane_sim_kernels.hpp"

namespace sfab::detail {

EngineFn engine_portable() noexcept { return &simulate; }

}  // namespace sfab::detail
