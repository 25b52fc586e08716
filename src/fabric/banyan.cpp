#include "fabric/banyan.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bitops.hpp"

namespace sfab {

BanyanFabric::BanyanFabric(FabricConfig config)
    : SwitchFabric(config),
      wires_(config_.tech),
      embedding_{config_.ports},
      buffer_model_(SramBufferModel::for_banyan(
          config_.ports,
          static_cast<double>(config_.buffer_words_per_switch) *
              config_.tech.bus_width)),
      stages_(log2_exact(config_.ports)) {
  if (!is_pow2(config_.ports)) {
    throw std::invalid_argument("BanyanFabric: ports must be a power of two");
  }
  links_.assign(stages_, std::vector<std::optional<Flit>>(ports()));
  buffers_.assign(stages_,
                  std::vector<std::deque<BufferedWord>>(ports() / 2));
  out_wire_.assign(stages_, std::vector<WireState>(ports()));
  input_priority_.assign(stages_, std::vector<char>(ports() / 2, 0));
}

unsigned BanyanFabric::switch_of(unsigned stage, PortId row) const {
  // Drop bit `stage` from the row index: the remaining bits enumerate the
  // N/2 switches of the stage.
  const auto low = static_cast<unsigned>(row & low_mask(stage));
  const unsigned high = (row >> (stage + 1)) << stage;
  return high | low;
}

std::pair<PortId, PortId> BanyanFabric::switch_rows(unsigned stage,
                                                    unsigned index) const {
  if (stage >= stages_ || index >= ports() / 2) {
    throw std::out_of_range("switch_rows: bad stage or index");
  }
  const auto low = static_cast<unsigned>(index & low_mask(stage));
  const unsigned high = (index >> stage) << (stage + 1);
  const PortId r0 = high | low;
  return {r0, r0 | (1u << stage)};
}

PortId BanyanFabric::out_row_of(unsigned stage, PortId row, PortId dest) const {
  // Self-routing: stage i sets row bit i to destination bit i.
  const PortId cleared = row & ~(PortId{1} << stage);
  return cleared | (static_cast<PortId>(bit_of(dest, stage)) << stage);
}

bool BanyanFabric::can_accept(PortId ingress) const {
  check_ingress(ingress);
  return !links_[0][ingress].has_value();
}

void BanyanFabric::inject(PortId ingress, const Flit& flit) {
  check_ingress(ingress);
  if (flit.dest >= ports()) {
    throw std::out_of_range("BanyanFabric: destination out of range");
  }
  if (links_[0][ingress].has_value()) {
    throw std::logic_error("BanyanFabric: inject into occupied ingress link");
  }
  Flit placed = flit;
  placed.row = ingress;
  links_[0][ingress] = placed;
  note_injected();
}

void BanyanFabric::charge_wire(unsigned stage, const Flit& flit,
                               PortId out_row) {
  const double grids = (flit.row == out_row)
                           ? embedding_.straight_link_grids()
                           : embedding_.cross_link_grids(stage);
  const int flips = out_wire_[stage][out_row].transmit(flit.data);
  ledger_.add(EnergyKind::kWire, wires_.flip_energy_j(flips, grids));
}

void BanyanFabric::charge_switch_activity(unsigned moved_count) {
  if (moved_count == 0) return;
  // The LUT's [1,1] entry covers two concurrently processed words; single
  // activity uses the symmetric [0,1] entry.
  const std::uint32_t mask = (moved_count >= 2) ? 0b11u : 0b01u;
  ledger_.add(EnergyKind::kSwitch,
              config_.switches.banyan2x2.energy_per_bit(mask) *
                  config_.tech.bus_width);
}

void BanyanFabric::tick(EgressSink& sink) {
  const double access_j =
      buffer_model_.access_energy_per_bit_j() * config_.tech.bus_width;

  // DRAM-backed buffers refresh continuously whether or not contention is
  // occurring (Eq. 1's E_ref): charge one cycle of refresh power up front.
  if (config_.dram_buffers) {
    const DramBufferModel dram{buffer_model_.capacity_bits(),
                               config_.dram_retention_s};
    ledger_.add(EnergyKind::kBuffer,
                dram.refresh_power_w() * config_.tech.cycle_time_s());
  }

  // Downstream stages first, so each stage writes into link slots the next
  // stage has already drained this cycle (one stage of progress per tick).
  for (unsigned stage = stages_; stage-- > 0;) {
    const bool last_stage = (stage == stages_ - 1);

    for (unsigned sw = 0; sw < ports() / 2; ++sw) {
      const auto [r0, r1] = switch_rows(stage, sw);
      std::deque<BufferedWord>& fifo = buffers_[stage][sw];
      unsigned moved = 0;

      // Alternate which input row gets priority, for fairness under load.
      const PortId first_row = input_priority_[stage][sw] ? r1 : r0;
      const PortId second_row = input_priority_[stage][sw] ? r0 : r1;
      input_priority_[stage][sw] ^= 1;

      for (const unsigned out_bit : {0u, 1u}) {
        const PortId out_row = (r0 & ~(PortId{1} << stage)) |
                               (static_cast<PortId>(out_bit) << stage);
        const bool slot_free =
            last_stage || !links_[stage + 1][out_row].has_value();
        if (!slot_free) continue;

        // Oldest buffered word for this output goes first (keeps packets in
        // order: a packet's words always want the same output).
        std::optional<Flit> mover;
        const auto buffered = std::find_if(
            fifo.begin(), fifo.end(), [&](const BufferedWord& word) {
              return bit_of(word.flit.dest, stage) == out_bit;
            });
        if (buffered != fifo.end()) {
          mover = buffered->flit;
          // A word that overflowed the skid slots into the SRAM is read
          // back out; skid-slot words ride a register and cost nothing.
          if (buffered->in_sram && config_.charge_buffer_read_and_write) {
            ledger_.add(EnergyKind::kBuffer, access_j);  // the READ back out
          }
          fifo.erase(buffered);
        } else {
          for (const PortId in_row : {first_row, second_row}) {
            auto& slot = links_[stage][in_row];
            if (slot.has_value() &&
                bit_of(slot->dest, stage) == out_bit) {
              mover = *slot;
              slot.reset();
              break;
            }
          }
        }
        if (!mover.has_value()) continue;

        charge_wire(stage, *mover, out_row);
        mover->row = out_row;
        ++moved;
        if (last_stage) {
          if (out_row != mover->dest) {
            throw std::logic_error("BanyanFabric: self-routing failed");
          }
          sink.deliver(out_row, *mover);
          note_delivered();
        } else {
          links_[stage + 1][out_row] = *mover;
        }
      }

      // Losers still sitting on input links go to the FIFO; if it is full
      // they stall in place and back-pressure the upstream stage. Words
      // joining a queue no deeper than the skid depth ride the bypass
      // register for free; deeper backlog spills into the shared SRAM.
      for (const PortId in_row : {r0, r1}) {
        auto& slot = links_[stage][in_row];
        if (!slot.has_value()) continue;
        if (fifo.size() < config_.buffer_words_per_switch) {
          const bool in_sram = fifo.size() >= config_.buffer_skid_words;
          if (in_sram) {
            ledger_.add(EnergyKind::kBuffer, access_j);  // the WRITE
            ++sram_words_buffered_;
          }
          ++words_buffered_;
          fifo.push_back(BufferedWord{*slot, in_sram});
          peak_occupancy_ = std::max(peak_occupancy_, fifo.size());
          slot.reset();
        } else {
          ++stall_cycles_;
        }
      }

      charge_switch_activity(moved);
    }
  }
}

bool BanyanFabric::idle() const {
  for (const auto& stage_links : links_) {
    for (const auto& slot : stage_links) {
      if (slot.has_value()) return false;
    }
  }
  for (const auto& stage_buffers : buffers_) {
    for (const auto& fifo : stage_buffers) {
      if (!fifo.empty()) return false;
    }
  }
  return true;
}

}  // namespace sfab
