// Multi-word bit-sliced gate-level simulator (64–512 Monte-Carlo lanes).
//
// Every net holds a *lane block* of W uint64_t words whose 64·W bits are
// 64·W independent Monte-Carlo simulation lanes (bit b of word w = lane
// 64·w + b): lane k of every block is a complete two-valued simulation
// that never observes any other lane. One levelized sweep over the
// flattened gate program therefore advances up to 512 random-vector
// characterization streams at the cost of roughly one scalar cycle — the
// classic bit-parallel (PROOFS-style) widening of gate-level Monte Carlo,
// generalized past one machine word so the inner loop can ride SIMD
// registers (gatelevel/lane_kernels.hpp: portable / AVX2 / AVX-512,
// selected at runtime via CPU feature detection).
//
// The active lane count may be ragged (not a multiple of 64): toggle
// counting masks the dead tail lanes of the last word, so they contribute
// neither toggles nor energy, while live lanes behave identically to any
// other block width. Aggregate toggles are counted popcount(old ^ new)
// at a time and energy accumulates as popcount * per-gate coefficient;
// additionally every gate keeps an exact integer toggle counter
// (op_toggle_counts / dff_toggle_counts) — order-free, so the counts are
// bit-identical across block widths and kernels, which is what lets
// characterize() produce engine-invariant energies.
//
// For correctness pinning, an optional per-lane accounting mode replays
// the exact accumulation order of the reference scalar engine
// (gatelevel/netlist.hpp) lane by lane: driving lane k with the bit
// stream a scalar run consumes yields *bit-identical* per-lane toggle
// counts and energies (tests/test_bitsliced.cpp, test_bitsliced_fuzz.cpp).
//
// The lane program is compiled once from a finalized Netlist:
// combinational gates flatten to structure-of-arrays {type, 3 pin slots,
// output, coefficient} in level order (no per-gate heap pin vectors, no
// dirty tracking — under random stimulus nearly everything is dirty
// anyway, and the straight level-sweep is branch-predictable and
// prefetch-friendly).
#pragma once

#include <cstdint>
#include <vector>

#include "gatelevel/lane_kernels.hpp"
#include "gatelevel/netlist.hpp"

namespace sfab::gatelevel {

/// The toggle-energy coefficients of a netlist's lane program at one
/// energy scale (Netlist::set_energy_scale's factor), in the order the
/// exact toggle counts come in. A scale changes these doubles and never a
/// toggle, so one measurement reduces at any number of scales.
struct LaneCoefficients {
  /// Per op, program (level) order: toggle_j + per_fanout_j · fanout —
  /// the same doubles the scalar engine charges per event.
  std::vector<double> op;
  std::vector<double> dff;  ///< per DFF, latch order
  double dff_idle_j = 0.0;  ///< DFF clock energy per lane-cycle
};

/// `source`'s coefficients at `scale` (finalized netlist; scale > 0).
[[nodiscard]] LaneCoefficients lane_coefficients(const Netlist& source,
                                                 double scale);

class BitslicedNetlist {
 public:
  static constexpr unsigned kWordLanes = 64;  ///< lanes per uint64_t word
  static constexpr unsigned kMaxWords = 8;    ///< widest supported block
  static constexpr unsigned kMaxLanes = kWordLanes * kMaxWords;  // 512

  /// Compiles the lane program from `source`, which must be finalized.
  /// The energy scale is captured at construction time. `lanes` is the
  /// active Monte-Carlo lane count (1..kMaxLanes, possibly ragged);
  /// `kernel` picks the sweep ISA (kAuto = best the CPU supports).
  explicit BitslicedNetlist(const Netlist& source, unsigned lanes = kWordLanes,
                            LaneKernel kernel = LaneKernel::kAuto);

  [[nodiscard]] std::size_t num_nets() const noexcept { return num_nets_; }
  [[nodiscard]] std::size_t num_inputs() const noexcept {
    return inputs_.size();
  }
  /// Active Monte-Carlo lanes per block.
  [[nodiscard]] unsigned lanes() const noexcept { return lanes_; }
  /// Words per lane block (= ceil(lanes / 64)).
  [[nodiscard]] unsigned words() const noexcept { return words_; }
  /// The concrete sweep kernel this engine resolved to.
  [[nodiscard]] LaneKernel kernel() const noexcept { return kernel_; }

  /// Resets all lanes of every net and DFF to 0 and clears all
  /// accumulators (aggregate, per-gate, and per-lane).
  void reset();

  /// Advances one clock cycle in every lane: DFF outputs present their
  /// latched blocks, input i is driven by input_blocks[i*words() ..
  /// i*words()+words()) (bit b of word w = lane 64·w + b), then the
  /// combinational level sweep settles all lanes at once and the DFFs
  /// capture D for the next cycle.
  void step(const std::vector<std::uint64_t>& input_blocks);

  /// Word `w` of a net's current lane block (bit b = lane 64·w + b).
  [[nodiscard]] std::uint64_t word(NetId net, unsigned w = 0) const;
  /// Lane k's current boolean value of a net (k < lanes()).
  [[nodiscard]] bool value(NetId net, unsigned lane) const;

  /// Energy accumulated across all active lanes since reset() (J),
  /// including DFF idle clock energy in every lane. Accumulated
  /// popcount-at-a-time, so it is the fast-path aggregate — statistically
  /// identical to, but not the same floating-point sum as, adding the
  /// per-lane series. Bit-identical across kernels at a fixed block
  /// width; across widths use the per-gate counts below.
  [[nodiscard]] double energy_j() const noexcept { return energy_j_; }
  /// Total output toggles across all active lanes since reset().
  [[nodiscard]] std::uint64_t toggles() const noexcept { return toggles_; }

  // --- exact per-gate accounting (block-width-invariant) -------------------

  /// Per-op toggle counts since reset(), in program (level) order. Pure
  /// integer accumulators: identical across block widths and kernels for
  /// the same lane population.
  [[nodiscard]] const std::vector<std::uint64_t>& op_toggle_counts()
      const noexcept {
    return op_toggles_;
  }
  /// Per-DFF toggle counts since reset(), in latch order.
  [[nodiscard]] const std::vector<std::uint64_t>& dff_toggle_counts()
      const noexcept {
    return dff_toggles_;
  }
  /// Per-op toggle energy coefficients (toggle_j + per_fanout_j · fanout),
  /// program order — the same doubles the scalar engine charges per event.
  [[nodiscard]] const std::vector<double>& op_coeffs() const noexcept {
    return op_coeff_;
  }
  /// Per-DFF toggle energy coefficients, latch order.
  [[nodiscard]] const std::vector<double>& dff_coeffs() const noexcept {
    return dff_coeff_;
  }
  /// DFF clock energy per lane-cycle (J).
  [[nodiscard]] double dff_idle_j() const noexcept { return dff_idle_j_; }
  [[nodiscard]] std::size_t num_dffs() const noexcept {
    return dff_q_.size();
  }

  // --- per-lane accounting (the scalar-equivalence harness) ----------------

  /// Enables per-lane toggle/energy accumulators. Off by default: the
  /// per-lane energy replay costs up to lanes() floating-point adds per
  /// toggling gate and exists to pin the engine against the scalar
  /// reference, not for production characterization. While enabled the
  /// sweep always runs the generic portable path (aggregates stay
  /// bit-identical to the kernel path at the same block width).
  void set_lane_accounting(bool enabled) noexcept {
    lane_accounting_ = enabled;
  }
  [[nodiscard]] bool lane_accounting() const noexcept {
    return lane_accounting_;
  }

  /// Lane k's energy since reset() (J). The accumulation order per lane is
  /// exactly the scalar engine's (DFF idle + toggle charges in latch
  /// order, then toggling combinational gates in level order), so a lane
  /// driven with a scalar run's bit stream matches that run's energy_j()
  /// bit for bit. Requires lane accounting enabled since the last reset.
  [[nodiscard]] double lane_energy_j(unsigned lane) const;
  /// Lane k's toggle count since reset().
  [[nodiscard]] std::uint64_t lane_toggles(unsigned lane) const;

  [[nodiscard]] const std::vector<NetId>& inputs() const noexcept {
    return inputs_;
  }

 private:
  void charge_lanes(std::uint64_t diff, unsigned word_index,
                    double coeff) noexcept;
  void sweep_accounting() noexcept;

  // Combinational lane program in level order. Pins are padded to three
  // slots (net 0 always exists; padded reads feed pins the gate ignores).
  std::vector<GateType> op_types_;
  std::vector<NetId> op_pins_;   // 3 slots per op
  std::vector<NetId> op_outs_;
  std::vector<double> op_coeff_;  // toggle_j + per_fanout_j * fanout(out)

  std::vector<NetId> dff_d_;
  std::vector<NetId> dff_q_;
  std::vector<double> dff_coeff_;
  double dff_idle_j_ = 0.0;  // per DFF per lane-cycle

  std::vector<NetId> inputs_;
  std::size_t num_nets_ = 0;
  unsigned lanes_ = kWordLanes;
  unsigned words_ = 1;
  LaneKernel kernel_ = LaneKernel::kPortable;
  LaneSweepFn sweep_ = nullptr;
  std::vector<std::uint64_t> word_masks_;  // countable lanes per word
  std::vector<std::uint64_t> values_;      // blocked: [net * words_ + w]
  std::vector<std::uint64_t> dff_state_;   // latched Q block per DFF

  double energy_j_ = 0.0;
  std::uint64_t toggles_ = 0;
  std::vector<std::uint64_t> op_toggles_;   // per op, program order
  std::vector<std::uint64_t> dff_toggles_;  // per DFF, latch order
  bool lane_accounting_ = false;
  std::vector<double> lane_energy_;          // per active lane
  std::vector<std::uint64_t> lane_toggles_;  // per active lane
};

}  // namespace sfab::gatelevel
