// NxN crossbar fabric (paper section 4.1, Fig. 5).
//
// Space-division multiplexing: every input-output pair has a dedicated
// crosspoint, so the crossbar is free of interconnect contention and needs
// no internal buffers (destination contention is the arbiter's job). The
// cost: a transported bit drives its entire input row wire (4N Thompson
// grids), the input gates of all N crosspoints hanging off that row (the
// N * E_S term of Eq. 3) and the entire output column wire (4N grids).
#pragma once

#include <optional>
#include <vector>

#include "fabric/fabric.hpp"
#include "power/wire_energy.hpp"
#include "thompson/fabric_embeddings.hpp"

namespace sfab {

class CrossbarFabric final : public SwitchFabric {
 public:
  explicit CrossbarFabric(FabricConfig config);

  [[nodiscard]] Architecture architecture() const noexcept override {
    return Architecture::kCrossbar;
  }
  [[nodiscard]] bool can_accept(PortId ingress) const override;
  void inject(PortId ingress, const Flit& flit) override;
  void tick(EgressSink& sink) override;
  [[nodiscard]] bool idle() const override;

 private:
  WireEnergyModel wires_;
  thompson::CrossbarEmbedding embedding_;
  /// Eq. 3's N * E_S per word, precomputed: constant per configuration.
  double switch_energy_per_word_j_;
  /// Word injected this cycle per ingress, delivered at the next tick.
  std::vector<std::optional<Flit>> in_flight_;
  /// Polarity memory of each input row bus and output column bus.
  std::vector<WireState> row_state_;
  std::vector<WireState> column_state_;
  std::vector<char> egress_taken_;  ///< per-tick scratch
};

}  // namespace sfab
