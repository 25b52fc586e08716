// POPCNT packet engine: the shared engine body compiled in the one TU that
// gets the per-TU -mpopcnt flag (see CMakeLists.txt), so the two wire-flip
// popcounts per streamed word lower to single POPCNT instructions instead
// of the baseline bit-hack expansion. When the toolchain or target can't
// build POPCNT the guard below reduces this TU to a stub returning nullptr
// and run_simulation() stays on the portable kernel. The caller has
// already verified the CPU supports POPCNT at runtime before this code can
// execute.
//
// Equality contract with the portable kernel: the statement sequence is
// identical (same file, different ISA flags) and popcount is an integer
// function, so every draw, counter and floating-point add matches bit for
// bit.
#include "sim/lane_sim_kernels.hpp"

#if defined(__POPCNT__)

#include "sim/lane_sim_engine.ipp"

namespace sfab::detail {

EngineFn engine_popcnt() noexcept { return &simulate; }

}  // namespace sfab::detail

#else  // !defined(__POPCNT__)

namespace sfab::detail {

EngineFn engine_popcnt() noexcept { return nullptr; }

}  // namespace sfab::detail

#endif
