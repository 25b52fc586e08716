// Baseline-ISA lane-sim pass: always available, and the only kernel on
// non-x86 hosts. The engine body is shared with the POPCNT TU
// (lane_sim_engine.ipp); this TU compiles it under the library's default
// flags only.
#include "sim/lane_sim_engine.ipp"
#include "sim/lane_sim_kernels.hpp"

namespace sfab::detail {

LanePassFn lane_pass_portable() noexcept { return &lane_pass; }

}  // namespace sfab::detail
