// Gate-level netlist with a levelized two-valued simulator and an
// activity-based power accumulator.
//
// Combinational gates are evaluated in topological order each cycle; DFFs
// latch their D input at the cycle boundary (classic zero-delay cycle
// semantics — adequate for average switching activity, which is what the
// bit-energy LUT characterization needs; glitch power is outside this
// model's scope and is absorbed by the calibration factor).
//
// Gate storage is structure-of-arrays with one shared CSR pin array, and
// the bit-sliced engine (gatelevel/bitsliced.hpp) compiles its lane
// program straight from the same arrays. This class is the reference
// scalar engine that the bit-sliced engine is pinned against
// lane-for-lane; it only runs in tests and the kScalar characterization
// engine, so it favours plain code over speed: every step evaluates every
// combinational gate in level order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gatelevel/gates.hpp"

namespace sfab::gatelevel {

using NetId = std::uint32_t;

class Netlist {
 public:
  /// Creates a new net, optionally named (names are for debugging only).
  NetId add_net(std::string name = {});

  /// Declares `net` a primary input (driven by the testbench).
  void mark_input(NetId net);

  /// Adds a gate driving `output` from `inputs` (pin order matters for
  /// kMux2: {a, b, select}). Each net may have at most one driver.
  void add_gate(GateType type, const std::vector<NetId>& inputs, NetId output);

  [[nodiscard]] std::size_t num_nets() const noexcept { return fanout_.size(); }
  [[nodiscard]] std::size_t num_gates() const noexcept {
    return gate_types_.size();
  }
  [[nodiscard]] const std::string& net_name(NetId net) const;

  /// Finalizes the netlist: checks every non-input net has a driver,
  /// levelizes the combinational gates, rejects combinational cycles.
  /// Must be called once before simulation.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  // --- structure (read-only; the bit-sliced compiler consumes these) -------

  [[nodiscard]] GateType gate_type(std::size_t gate) const {
    return gate_types_[gate];
  }
  [[nodiscard]] NetId gate_output(std::size_t gate) const {
    return gate_outs_[gate];
  }
  /// Input pins of `gate` in pin order (kMux2: {a, b, select}).
  [[nodiscard]] std::span<const NetId> gate_pins(std::size_t gate) const {
    return {gate_pins_.data() + gate_pin_offsets_[gate],
            gate_pin_offsets_[gate + 1] - gate_pin_offsets_[gate]};
  }
  /// Combinational gates in a topological evaluation order (finalized).
  [[nodiscard]] const std::vector<std::size_t>& level_order() const noexcept {
    return level_order_;
  }
  /// DFF gate indices in latch order (finalized).
  [[nodiscard]] const std::vector<std::size_t>& dff_gates() const noexcept {
    return dffs_;
  }
  /// Number of gate input pins loading `net`.
  [[nodiscard]] std::uint32_t fanout(NetId net) const { return fanout_[net]; }
  [[nodiscard]] double energy_scale() const noexcept { return energy_scale_; }

  // --- simulation ----------------------------------------------------------

  /// Resets all nets and DFF states to 0 and clears accumulated energy.
  void reset();

  /// Advances one clock cycle: DFF outputs take their latched values, then
  /// `input_values[i]` is applied to the i-th marked input (in mark order),
  /// then combinational logic settles. Energy for every toggled net is
  /// accumulated. Requires finalize().
  void step(const std::vector<bool>& input_values);

  /// Current value of a net.
  [[nodiscard]] bool value(NetId net) const;

  /// Energy accumulated since reset() (J), including DFF idle clock energy.
  [[nodiscard]] double energy_j() const noexcept { return energy_j_; }

  /// Total output toggles since reset().
  [[nodiscard]] std::uint64_t toggles() const noexcept { return toggles_; }

  /// Per-gate output toggle counts since reset(), indexed by gate id.
  /// Exact integer accumulators: the characterizer reduces these against
  /// the per-gate energy coefficients in a canonical order, which is what
  /// makes the scalar engine's characterization energies bit-identical to
  /// the bit-sliced engines' at any block width (gatelevel/power_sim.hpp).
  [[nodiscard]] const std::vector<std::uint64_t>& gate_toggle_counts()
      const noexcept {
    return gate_toggles_;
  }

  /// Global energy scale (technology factor), default 1.0; applied to all
  /// gate coefficients. Set before simulating.
  void set_energy_scale(double scale);

  [[nodiscard]] const std::vector<NetId>& inputs() const noexcept {
    return inputs_;
  }

 private:
  void charge_toggle(std::size_t gate);

  // Gate storage: structure-of-arrays + CSR pin list (index = gate id).
  std::vector<GateType> gate_types_;
  std::vector<NetId> gate_outs_;
  std::vector<std::uint32_t> gate_pin_offsets_{0};  // size num_gates() + 1
  std::vector<NetId> gate_pins_;

  std::vector<std::uint32_t> fanout_;   // per net: number of gate input pins
  std::vector<std::string> names_;
  std::vector<NetId> inputs_;
  std::vector<char> has_driver_;
  std::vector<char> value_;             // current net values
  std::vector<std::size_t> level_order_;  // combinational gates, topo order
  std::vector<std::size_t> dffs_;       // gate indices
  std::vector<char> dff_state_;         // latched Q per DFF
  double energy_scale_ = 1.0;
  double energy_j_ = 0.0;
  std::uint64_t toggles_ = 0;
  std::vector<std::uint64_t> gate_toggles_;  // per gate id, since reset()
  bool finalized_ = false;
};

}  // namespace sfab::gatelevel
