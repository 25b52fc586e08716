#include "fabric/crossbar.hpp"

#include <algorithm>
#include <stdexcept>

namespace sfab {

CrossbarFabric::CrossbarFabric(FabricConfig config)
    : SwitchFabric(config),
      wires_(config_.tech),
      embedding_{config_.ports},
      switch_energy_per_word_j_(
          ports() * config_.switches.crosspoint.energy_per_bit(1u) *
          config_.tech.bus_width),
      in_flight_(config_.ports),
      row_state_(config_.ports),
      column_state_(config_.ports),
      egress_taken_(config_.ports, 0) {}

bool CrossbarFabric::can_accept(PortId ingress) const {
  check_ingress(ingress);
  return !in_flight_[ingress].has_value();
}

void CrossbarFabric::inject(PortId ingress, const Flit& flit) {
  check_ingress(ingress);
  if (flit.dest >= ports()) {
    throw std::out_of_range("CrossbarFabric: destination out of range");
  }
  if (in_flight_[ingress].has_value()) {
    throw std::logic_error("CrossbarFabric: double inject on one ingress");
  }
  in_flight_[ingress] = flit;
  note_injected();
}

void CrossbarFabric::tick(EgressSink& sink) {
  // The arbiter guarantees one packet per egress; verify it anyway — a
  // violated precondition here means the caller's arbitration is broken.
  std::fill(egress_taken_.begin(), egress_taken_.end(), 0);

  for (PortId row = 0; row < ports(); ++row) {
    if (!in_flight_[row].has_value()) continue;
    const Flit flit = *in_flight_[row];
    in_flight_[row].reset();
    if (egress_taken_[flit.dest]) {
      throw std::logic_error(
          "CrossbarFabric: two words for one egress in one cycle "
          "(destination contention must be resolved by the arbiter)");
    }
    egress_taken_[flit.dest] = 1;

    // Node switches: the bit toggles the input gates of all N crosspoints
    // on its row (Eq. 3's N * E_S term, precomputed per word).
    ledger_.add(EnergyKind::kSwitch, switch_energy_per_word_j_);

    // Wires: full row then full column, charged per flipped bit.
    const int row_flips = row_state_[row].transmit(flit.data);
    const int col_flips = column_state_[flit.dest].transmit(flit.data);
    ledger_.add(EnergyKind::kWire,
                wires_.flip_energy_j(row_flips, embedding_.row_wire_grids()) +
                    wires_.flip_energy_j(col_flips,
                                         embedding_.column_wire_grids()));

    sink.deliver(flit.dest, flit);
    note_delivered();
  }
}

bool CrossbarFabric::idle() const {
  for (const auto& slot : in_flight_) {
    if (slot.has_value()) return false;
  }
  return true;
}

}  // namespace sfab
