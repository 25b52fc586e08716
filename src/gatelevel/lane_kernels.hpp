// Runtime-dispatched SIMD kernels for the multi-word bit-sliced sweep.
//
// The bit-sliced engine's hot loop is one levelized pass over the
// combinational lane program, W words (64·W Monte-Carlo lanes) per net:
// per op it evaluates the lanes, XORs against the stored block, popcounts
// the masked diff, and accumulates toggles and energy. That inner loop is
// pure word-parallel boolean algebra, so it widens onto AVX-512 (8 words
// per 512-bit vector, in-register vpopcntq) and AVX2 (4 words per 256-bit
// vector) without changing a single observable: every kernel computes the
// same per-op integer flip count and then executes the identical
// floating-point accumulation sequence, so aggregate energy is
// bit-identical across kernels. The portable scalar-word kernel is always
// available and is built for the library's ISA baseline (x86-64-v2 on
// x86-64, so its popcounts are POPCNT instructions); kAuto picks the
// widest ISA the CPU supports.
//
// Each SIMD kernel lives in its own translation unit compiled with per-TU
// flags on top of the baseline (see CMakeLists.txt):
// lane_kernels_avx2.cpp gets -mavx2 and lane_kernels_avx512.cpp gets
// -mavx512f -mavx512vpopcntdq on x86-64 toolchains that support them, and
// each compiles to a stub elsewhere.
#pragma once

#include <cstdint>
#include <string_view>

#include "gatelevel/gates.hpp"

namespace sfab::gatelevel {

enum class LaneKernel : std::uint8_t {
  kAuto,      ///< pick the widest ISA the CPU supports (default)
  kPortable,  ///< scalar uint64_t words — always available, the reference
  kAvx2,      ///< 256-bit AVX2 words (x86-64, runtime-detected)
  kAvx512,    ///< 512-bit AVX-512F+VPOPCNTDQ words (x86-64, runtime-detected)
};

[[nodiscard]] std::string_view to_string(LaneKernel kernel) noexcept;

/// True when `kernel` can run on this build AND this CPU (kAuto and
/// kPortable are always available).
[[nodiscard]] bool lane_kernel_available(LaneKernel kernel) noexcept;

/// Resolves kAuto to the best available concrete kernel; concrete requests
/// are returned unchanged when available. Throws std::invalid_argument for
/// a concrete kernel this build/CPU cannot run.
[[nodiscard]] LaneKernel resolve_lane_kernel(LaneKernel requested);

/// The compiled combinational lane program (level order, 3 pin slots per
/// op — see gatelevel/bitsliced.hpp, which owns the arrays).
struct LaneSweepProgram {
  const GateType* types = nullptr;
  const std::uint32_t* pins = nullptr;  ///< 3 net-id slots per op
  const std::uint32_t* outs = nullptr;  ///< output net id per op
  const double* coeffs = nullptr;       ///< toggle energy coefficient per op
  std::size_t n_ops = 0;
};

/// One levelized sweep over blocked net storage (`values[net·words + w]`,
/// bit b of word w = lane 64·w + b). `word_masks[w]` selects the countable
/// lanes of word w (all ones except possibly the last word of a ragged
/// block). Per op: lanes are evaluated and stored unconditionally; flips =
/// popcount of the masked diff summed over the block; when flips != 0 the
/// kernel adds flips to op_toggles[g] and coeffs[g]·flips to *energy_j.
/// Returns the total flips added. The store/count/accumulate sequence is
/// identical in every kernel, so results are kernel-invariant bit for bit.
using LaneSweepFn = std::uint64_t (*)(const LaneSweepProgram& program,
                                      std::uint64_t* values, unsigned words,
                                      const std::uint64_t* word_masks,
                                      std::uint64_t* op_toggles,
                                      double* energy_j);

/// Sweep entry point for `kernel` (resolved via resolve_lane_kernel).
[[nodiscard]] LaneSweepFn lane_sweep_fn(LaneKernel kernel);

/// Per-ISA factories; nullptr when the TU was compiled without the ISA or
/// the running CPU lacks it. (lane_sweep_portable never returns nullptr.)
[[nodiscard]] LaneSweepFn lane_sweep_portable() noexcept;
[[nodiscard]] LaneSweepFn lane_sweep_avx2() noexcept;
[[nodiscard]] LaneSweepFn lane_sweep_avx512() noexcept;

}  // namespace sfab::gatelevel
