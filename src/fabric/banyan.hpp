// NxN Banyan fabric (paper section 4.3, Fig. 7).
//
// Implemented as the indirect binary n-cube, an isomorph of the butterfly:
// N = 2^n rows, n stages of N/2 two-by-two switches; stage i pairs the rows
// that differ in address bit i and self-routes on destination bit i, so a
// packet reaches its egress row after the last stage with no global
// arbitration. The price is *interconnect contention* (internal blocking):
// two packets wanting the same switch output in the same cycle collide, and
// the loser is written into the node's shared-SRAM FIFO — the "buffer
// penalty" that dominates Banyan power at high load (paper section 6).
//
// Flow control: a colliding word that finds the FIFO full stalls on its
// input link, back-pressuring the upstream stage (and ultimately the
// ingress). The network is feed-forward and egress always drains, so no
// deadlock is possible; FIFO-per-output-port ordering keeps each packet's
// words in sequence.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "fabric/fabric.hpp"
#include "power/buffer_energy.hpp"
#include "power/wire_energy.hpp"
#include "thompson/fabric_embeddings.hpp"

namespace sfab {

class BanyanFabric final : public SwitchFabric {
 public:
  explicit BanyanFabric(FabricConfig config);

  [[nodiscard]] Architecture architecture() const noexcept override {
    return Architecture::kBanyan;
  }
  /// Contention queueing makes latency variable; egresses must stay locked
  /// until tail delivery.
  [[nodiscard]] bool fixed_latency() const noexcept override { return false; }
  [[nodiscard]] bool can_accept(PortId ingress) const override;
  void inject(PortId ingress, const Flit& flit) override;
  void tick(EgressSink& sink) override;
  [[nodiscard]] bool idle() const override;

  // --- introspection (for experiments and tests) ---------------------------

  [[nodiscard]] unsigned stages() const noexcept { return stages_; }
  /// Words written into node FIFOs since construction (skid or SRAM).
  [[nodiscard]] std::uint64_t words_buffered() const noexcept override {
    return words_buffered_;
  }
  /// Subset of words_buffered() that overflowed the skid slots into the
  /// shared SRAM and paid access energy.
  [[nodiscard]] std::uint64_t sram_words_buffered() const noexcept override {
    return sram_words_buffered_;
  }
  /// Input-link stall cycles (word could neither advance nor be buffered).
  [[nodiscard]] std::uint64_t stall_cycles() const noexcept override {
    return stall_cycles_;
  }
  /// Highest FIFO occupancy (words) ever seen in any node switch.
  [[nodiscard]] std::size_t peak_buffer_occupancy() const noexcept {
    return peak_occupancy_;
  }
  /// Shared-SRAM model backing the node FIFOs.
  [[nodiscard]] const SramBufferModel& buffer_model() const noexcept {
    return buffer_model_;
  }

  /// Rows paired by the switch `index` of `stage` (r1 = r0 | 1 << stage).
  [[nodiscard]] std::pair<PortId, PortId> switch_rows(unsigned stage,
                                                      unsigned index) const;

 private:
  /// Switch index serving `row` at `stage`.
  [[nodiscard]] unsigned switch_of(unsigned stage, PortId row) const;
  /// Output row for `flit` leaving `stage` from a switch whose base row
  /// pair contains `row`.
  [[nodiscard]] PortId out_row_of(unsigned stage, PortId row,
                                  PortId dest) const;
  void charge_wire(unsigned stage, const Flit& flit, PortId out_row);
  void charge_switch_activity(unsigned moved_count);

  WireEnergyModel wires_;
  thompson::BanyanEmbedding embedding_;
  SramBufferModel buffer_model_;
  unsigned stages_;

  /// A queued contention loser; in_sram records whether it overflowed the
  /// skid slots (and therefore pays SRAM access energy).
  struct BufferedWord {
    Flit flit;
    bool in_sram = false;
  };

  /// links_[s][row]: word waiting at the input of stage s (s == 0 is fed by
  /// inject()). Values move from stage s to stage s+1 each tick.
  std::vector<std::vector<std::optional<Flit>>> links_;
  /// buffers_[s][switch]: node FIFO holding contention losers, oldest
  /// first.
  std::vector<std::vector<std::deque<BufferedWord>>> buffers_;
  /// Polarity memory of each stage-output wire, indexed [stage][out_row].
  std::vector<std::vector<WireState>> out_wire_;
  /// Per-switch alternating input priority (fairness between the two rows).
  std::vector<std::vector<char>> input_priority_;

  std::uint64_t words_buffered_ = 0;
  std::uint64_t sram_words_buffered_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::size_t peak_occupancy_ = 0;
};

}  // namespace sfab
