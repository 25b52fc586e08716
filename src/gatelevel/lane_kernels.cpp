// Kernel registry: runtime CPU feature detection and kAuto resolution.
#include <stdexcept>
#include <string>

#include "gatelevel/lane_kernels.hpp"

namespace sfab::gatelevel {

std::string_view to_string(LaneKernel kernel) noexcept {
  switch (kernel) {
    case LaneKernel::kAuto: return "auto";
    case LaneKernel::kPortable: return "portable";
    case LaneKernel::kAvx2: return "avx2";
    case LaneKernel::kAvx512: return "avx512";
  }
  return "?";
}

bool lane_kernel_available(LaneKernel kernel) noexcept {
  switch (kernel) {
    case LaneKernel::kAuto:
    case LaneKernel::kPortable:
      return true;
    case LaneKernel::kAvx2:
      return lane_sweep_avx2() != nullptr;
    case LaneKernel::kAvx512:
      return lane_sweep_avx512() != nullptr;
  }
  return false;
}

LaneKernel resolve_lane_kernel(LaneKernel requested) {
  if (requested == LaneKernel::kAuto) {
    if (lane_sweep_avx512() != nullptr) return LaneKernel::kAvx512;
    if (lane_sweep_avx2() != nullptr) return LaneKernel::kAvx2;
    return LaneKernel::kPortable;
  }
  if (!lane_kernel_available(requested)) {
    throw std::invalid_argument("lane kernel unavailable on this CPU/build: " +
                                std::string(to_string(requested)));
  }
  return requested;
}

LaneSweepFn lane_sweep_fn(LaneKernel kernel) {
  switch (resolve_lane_kernel(kernel)) {
    case LaneKernel::kAvx2: return lane_sweep_avx2();
    case LaneKernel::kAvx512: return lane_sweep_avx512();
    default: return lane_sweep_portable();
  }
}

}  // namespace sfab::gatelevel
