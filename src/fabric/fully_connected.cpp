#include "fabric/fully_connected.hpp"

#include <algorithm>
#include <stdexcept>

namespace sfab {

FullyConnectedFabric::FullyConnectedFabric(FabricConfig config)
    : SwitchFabric(config),
      wires_(config_.tech),
      embedding_{config_.ports},
      mux_energy_per_word_j_(
          config_.switches.mux_energy_per_bit(config_.ports) *
          config_.tech.bus_width),
      in_flight_(config_.ports),
      broadcast_state_(config_.ports),
      egress_taken_(config_.ports, 0) {}

bool FullyConnectedFabric::can_accept(PortId ingress) const {
  check_ingress(ingress);
  return !in_flight_[ingress].has_value();
}

void FullyConnectedFabric::inject(PortId ingress, const Flit& flit) {
  check_ingress(ingress);
  if (flit.dest >= ports()) {
    throw std::out_of_range("FullyConnectedFabric: destination out of range");
  }
  if (in_flight_[ingress].has_value()) {
    throw std::logic_error(
        "FullyConnectedFabric: double inject on one ingress");
  }
  in_flight_[ingress] = flit;
  note_injected();
}

void FullyConnectedFabric::tick(EgressSink& sink) {
  std::fill(egress_taken_.begin(), egress_taken_.end(), 0);

  for (PortId input = 0; input < ports(); ++input) {
    if (!in_flight_[input].has_value()) continue;
    const Flit flit = *in_flight_[input];
    in_flight_[input].reset();
    if (egress_taken_[flit.dest]) {
      throw std::logic_error(
          "FullyConnectedFabric: two words for one egress in one cycle");
    }
    egress_taken_[flit.dest] = 1;

    // Only the selected MUX processes the bit (paper: "each bit only
    // consumes energy on one of the MUXes").
    ledger_.add(EnergyKind::kSwitch, mux_energy_per_word_j_);

    const int flips = broadcast_state_[input].transmit(flit.data);
    ledger_.add(EnergyKind::kWire,
                wires_.flip_energy_j(flips, embedding_.path_grids()));

    sink.deliver(flit.dest, flit);
    note_delivered();
  }
}

bool FullyConnectedFabric::idle() const {
  for (const auto& slot : in_flight_) {
    if (slot.has_value()) return false;
  }
  return true;
}

}  // namespace sfab
