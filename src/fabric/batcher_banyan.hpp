// Batcher-Banyan fabric (paper section 4.4, Fig. 8).
//
// A Batcher bitonic sorting network in front of a Banyan removes the
// Banyan's interconnect contention: each cycle's cohort of words is sorted
// by destination (idle rows behave as +infinity keys), which concentrates
// the active words, in destination order, at the top rows; a sorted and
// concentrated cohort with distinct destinations then routes through the
// MSB-first banyan with no internal conflicts (the classic Batcher-banyan
// non-blocking property). The price is depth — 1/2 * log2(N) * (log2(N)+1)
// sorting stages plus log2(N) banyan stages — which multiplies the switch
// and wire energy per bit (Eq. 6).
//
// Modeling notes (DESIGN.md section 3):
//  * Sorter stages are true compare-exchange columns: two words meeting at
//    a switch always both advance (one per output), so the sorter never
//    blocks; each substage of comparator span 2^i charges its full
//    crossing wire (4 * 2^i grids) exactly as Eq. 6 assumes, which lets
//    tests demand exact agreement between simulator and closed form.
//  * Because packets stream word-by-word, a packet's rank — and hence its
//    row trajectory — can change mid-packet as other packets start and
//    finish. Word order is still preserved: the pipeline has uniform depth
//    and the banyan arbiter prefers the earlier sequence number of a
//    packet when two of its words ever compete.
//  * Residual banyan-stage conflicts (possible only for cohorts sheared by
//    an earlier stall) stall in place and are counted in link_conflicts();
//    in steady state the counter stays at or near zero.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fabric/bitonic.hpp"
#include "fabric/fabric.hpp"
#include "power/wire_energy.hpp"
#include "thompson/fabric_embeddings.hpp"

namespace sfab {

class BatcherBanyanFabric final : public SwitchFabric {
 public:
  explicit BatcherBanyanFabric(FabricConfig config);

  [[nodiscard]] Architecture architecture() const noexcept override {
    return Architecture::kBatcherBanyan;
  }
  [[nodiscard]] bool can_accept(PortId ingress) const override;
  void inject(PortId ingress, const Flit& flit) override;
  void tick(EgressSink& sink) override;
  [[nodiscard]] bool idle() const override;

  /// Total pipeline depth: sorter substages + banyan stages.
  [[nodiscard]] unsigned depth() const noexcept {
    return static_cast<unsigned>(stage_specs_.size());
  }
  /// Stall events in the banyan section (see header note); ~0 in steady
  /// state.
  [[nodiscard]] std::uint64_t link_conflicts() const noexcept {
    return link_conflicts_;
  }

 private:
  struct StageSpec {
    bool sorter = true;      ///< sorter substage or banyan stage
    unsigned span_log2 = 0;  ///< comparator / routing span
    unsigned phase = 0;      ///< bitonic merge phase (sorter stages only)
  };

  void tick_sorter_stage(unsigned stage, const StageSpec& spec);
  void tick_banyan_stage(unsigned stage, const StageSpec& spec,
                         EgressSink& sink);
  void move_word(unsigned stage, unsigned span_log2, Flit flit,
                 PortId out_row, bool deliver, EgressSink* sink);
  void charge_switch_activity(const StageSpec& spec, unsigned moved_count);

  WireEnergyModel wires_;
  unsigned dimension_;
  std::vector<StageSpec> stage_specs_;
  /// links_[k][row]: word at the input of pipeline stage k.
  std::vector<std::vector<std::optional<Flit>>> links_;
  /// Polarity memory per stage-output wire [stage][out_row].
  std::vector<std::vector<WireState>> out_wire_;
  /// Per-stage alternating arbitration priority for the banyan section.
  /// (Every switch of a stage toggled in lockstep each cycle in the
  /// per-switch formulation, so one parity bit per stage is exact.)
  std::vector<char> banyan_parity_;

  std::uint64_t link_conflicts_ = 0;
};

}  // namespace sfab
