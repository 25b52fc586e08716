// Random-vector power characterization — the stand-in for the paper's
// Synopsys Power Compiler flow.
//
// For every requested input-occupancy mask the harness drives active ports
// with fresh random payload (and random addresses) each cycle, holds idle
// ports at zero, lets the netlist settle, and averages the accumulated
// switching energy per cycle. Dividing by the payload width yields energy
// per bit-slot — the exact quantity Table 1 tabulates.
//
// The Monte-Carlo *sample* is fixed by the config alone: `lanes`
// independent streams (lane k draws derive_stream_seed(seed, k)), each
// warmed `warmup` cycles and measured ceil(cycles / lanes) cycles. Engines
// only decide how that sample is processed:
//  * kBitsliced (default): the multi-word bit-sliced engine
//    (gatelevel/bitsliced.hpp) advances all `lanes` lanes (at most 512,
//    one lane block) per levelized sweep, with the SIMD kernel picked at
//    runtime (config.kernel).
//  * kScalar: the original one-boolean-per-net reference engine, driven
//    lane by lane with the identical bit streams (BitRng).
// Per-mask energy is reduced from exact integer per-gate toggle counts in
// a canonical order, so characterize() results are bit-identical across
// engines, kernels, and worker-thread counts — the fast path is pinned to
// the reference not just statistically but double for double. Masks are
// independent samples, so characterize() can fan them out across a worker
// pool (config.threads), one private engine per worker, results written
// back in canonical mask order.
//
// An energy scale (Netlist::set_energy_scale, one per technology preset)
// changes the gate coefficients and never a toggle, so the *_at_scales
// entry points measure each mask once and reduce its counts at every
// scale; characterize() and characterize_all_active() are their
// one-scale case, at the netlist's own scale.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gatelevel/lane_kernels.hpp"
#include "gatelevel/switch_netlists.hpp"

namespace sfab::gatelevel {

enum class CharacterizeEngine : std::uint8_t {
  kBitsliced,  ///< multi-word lane blocks per netlist sweep (fast path)
  kScalar,     ///< reference engine, lane-serial (baseline / debugging)
};

struct CharacterizationConfig {
  /// Measured Monte-Carlo lane-cycles per occupancy mask (after warm-up).
  /// Covered as `lanes` streams of ceil(cycles / lanes) cycles each
  /// (rounding up to whole cycles, never under-sampling). Budgets whose
  /// toggle accumulators cannot be represented exactly in 64 bits are
  /// rejected with std::overflow_error rather than wrapping.
  std::uint64_t cycles = 4000;
  /// Warm-up cycles excluded from the energy average, per lane.
  unsigned warmup = 64;
  std::uint64_t seed = 0xC0FFEEull;
  CharacterizeEngine engine = CharacterizeEngine::kBitsliced;
  /// Monte-Carlo lane population per mask (1..512); 0 = the widest
  /// supported block (512). This defines the sample — results depend on
  /// it, never on the engine/kernel processing choices below.
  unsigned lanes = 0;
  /// kBitsliced: sweep ISA (kAuto = best the CPU supports).
  LaneKernel kernel = LaneKernel::kAuto;
  /// Worker threads across occupancy masks (masks are independent samples,
  /// so they are embarrassingly parallel). Each worker owns a private
  /// harness copy + engine; results land in canonical mask order, so the
  /// output is bit-identical at any thread count. 0 = one worker per
  /// hardware thread; 1 (default) = serial.
  unsigned threads = 1;
};

struct MaskEnergy {
  std::uint32_t mask = 0;
  /// Average energy per cycle in that state (J).
  double energy_per_cycle_j = 0.0;
  /// Energy per payload bit-slot (energy_per_cycle / bits_per_port), the
  /// Table 1 quantity (J).
  double energy_per_bit_j = 0.0;
};

/// Characterizes the harness for each mask in `masks` (bit p set = port p
/// active). Masks must fit the harness's port count.
[[nodiscard]] std::vector<MaskEnergy> characterize(
    SwitchHarness& harness, const std::vector<std::uint32_t>& masks,
    const CharacterizationConfig& config = {});

/// Characterizes the all-ports-active state — the escape hatch for
/// harnesses with more than 32 ports (wide MUXes), where a uint32_t mask
/// cannot express "all active". The returned mask field is 0xFFFFFFFF.
[[nodiscard]] MaskEnergy characterize_all_active(
    SwitchHarness& harness, const CharacterizationConfig& config = {});

/// characterize() at several energy scales from one measurement:
/// result[s] is, bit for bit, characterize() on the harness with its
/// netlist set to scales[s] (each > 0). The netlist's own scale is
/// ignored.
[[nodiscard]] std::vector<std::vector<MaskEnergy>> characterize_at_scales(
    SwitchHarness& harness, const std::vector<std::uint32_t>& masks,
    const std::vector<double>& scales, const CharacterizationConfig& config);

/// characterize_all_active() at several energy scales from one
/// measurement, result[s] at scales[s].
[[nodiscard]] std::vector<MaskEnergy> characterize_all_active_at_scales(
    SwitchHarness& harness, const std::vector<double>& scales,
    const CharacterizationConfig& config);

/// All 2^ports masks in order — convenient for 1- and 2-port switches; do
/// not use for wide MUXes (exponential).
[[nodiscard]] std::vector<std::uint32_t> all_masks(unsigned ports);

/// Characterizes a 2-port switch and returns the 4-entry LUT
/// {E[00], E[01], E[10], E[11]} in joules per bit — ready to feed into
/// sfab::VectorIndexedLut.
[[nodiscard]] std::vector<double> characterize_two_port_lut(
    SwitchHarness& harness, const CharacterizationConfig& config = {});

}  // namespace sfab::gatelevel
