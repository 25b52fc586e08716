// NxN fully-connected (MUX-based) fabric (paper section 4.2, Fig. 6).
//
// Every egress port owns an N-input MUX; every ingress fans out to all of
// them. Like the crossbar it is free of interconnect contention and
// bufferless, but a bit only burns energy in the *one* MUX that selects it
// (Eq. 4's single E_S term) — at the price of an N^2/2-grid wire run and a
// MUX whose own energy grows with N.
#pragma once

#include <optional>
#include <vector>

#include "fabric/fabric.hpp"
#include "power/wire_energy.hpp"
#include "thompson/fabric_embeddings.hpp"

namespace sfab {

class FullyConnectedFabric final : public SwitchFabric {
 public:
  explicit FullyConnectedFabric(FabricConfig config);

  [[nodiscard]] Architecture architecture() const noexcept override {
    return Architecture::kFullyConnected;
  }
  [[nodiscard]] bool can_accept(PortId ingress) const override;
  void inject(PortId ingress, const Flit& flit) override;
  void tick(EgressSink& sink) override;
  [[nodiscard]] bool idle() const override;

 private:
  WireEnergyModel wires_;
  thompson::FullyConnectedEmbedding embedding_;
  /// The selected MUX's energy per bit times bus_width: a per-word constant.
  double mux_energy_per_word_j_;
  std::vector<std::optional<Flit>> in_flight_;
  /// Polarity memory of each ingress broadcast bus.
  std::vector<WireState> broadcast_state_;
  std::vector<char> egress_taken_;  ///< per-tick scratch
};

}  // namespace sfab
