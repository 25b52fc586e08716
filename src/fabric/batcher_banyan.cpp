#include "fabric/batcher_banyan.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace sfab {

BatcherBanyanFabric::BatcherBanyanFabric(FabricConfig config)
    : SwitchFabric(config),
      wires_(config_.tech),
      dimension_(log2_exact(config_.ports)) {
  if (!is_pow2(config_.ports) || config_.ports < 4) {
    throw std::invalid_argument(
        "BatcherBanyanFabric: ports must be a power of two >= 4");
  }
  for (const BitonicStage& s : bitonic_schedule(config_.ports)) {
    stage_specs_.push_back(StageSpec{true, s.span_log2, s.phase});
  }
  // Banyan section MSB-first: routing a sorted, concentrated cohort from
  // high span to low is the non-blocking order.
  for (unsigned s = dimension_; s-- > 0;) {
    stage_specs_.push_back(StageSpec{false, s, 0});
  }
  links_.assign(stage_specs_.size(),
                std::vector<std::optional<Flit>>(ports()));
  out_wire_.assign(stage_specs_.size(), std::vector<WireState>(ports()));
  banyan_parity_.assign(stage_specs_.size(), 0);
}

void BatcherBanyanFabric::charge_switch_activity(const StageSpec& spec,
                                                 unsigned moved_count) {
  if (moved_count == 0) return;
  const std::uint32_t mask = (moved_count >= 2) ? 0b11u : 0b01u;
  const VectorIndexedLut& lut =
      spec.sorter ? config_.switches.sorter2x2 : config_.switches.banyan2x2;
  ledger_.add(EnergyKind::kSwitch,
              lut.energy_per_bit(mask) * config_.tech.bus_width);
}

bool BatcherBanyanFabric::can_accept(PortId ingress) const {
  check_ingress(ingress);
  return !links_[0][ingress].has_value();
}

void BatcherBanyanFabric::inject(PortId ingress, const Flit& flit) {
  check_ingress(ingress);
  if (flit.dest >= ports()) {
    throw std::out_of_range("BatcherBanyanFabric: destination out of range");
  }
  if (links_[0][ingress].has_value()) {
    throw std::logic_error(
        "BatcherBanyanFabric: inject into occupied ingress link");
  }
  Flit placed = flit;
  placed.row = ingress;
  links_[0][ingress] = placed;
  note_injected();
}

void BatcherBanyanFabric::move_word(unsigned stage, unsigned span_log2,
                                    Flit flit, PortId out_row, bool deliver,
                                    EgressSink* sink) {
  // Eq. 6 accounting: every traversed substage charges its full crossing
  // wire length (4 * 2^span grids), matching the closed form exactly.
  const int flips = out_wire_[stage][out_row].transmit(flit.data);
  ledger_.add(EnergyKind::kWire,
              wires_.flip_energy_j(
                  flips, 4.0 * static_cast<double>(1u << span_log2)));
  flit.row = out_row;
  if (deliver) {
    if (out_row != flit.dest) {
      throw std::logic_error(
          "BatcherBanyanFabric: routing failed to reach destination");
    }
    sink->deliver(out_row, flit);
    note_delivered();
  } else {
    links_[stage + 1][out_row] = flit;
  }
}

void BatcherBanyanFabric::tick_sorter_stage(unsigned stage,
                                            const StageSpec& spec) {
  const unsigned b = spec.span_log2;
  auto& in = links_[stage];
  const auto& out = links_[stage + 1];
  // Switches in ascending order: the ledger accumulation order the
  // goldens pin. Writes land in stage + 1 only.
  for (unsigned sw = 0; sw < ports() / 2; ++sw) {
    const auto low = static_cast<unsigned>(sw & low_mask(b));
    const unsigned high = (sw >> b) << (b + 1);
    const PortId r0 = high | low;
    const PortId r1 = r0 | (1u << b);
    const bool has0 = in[r0].has_value();
    const bool has1 = in[r1].has_value();

    // Compare-exchange on destination keys; an idle input behaves as
    // +infinity so active words concentrate toward the block's small
    // end.
    const bool ascending = bitonic_ascending(r0, spec.phase);
    const std::uint64_t kIdle = ~0ull;
    const std::uint64_t key0 = has0 ? in[r0]->dest : kIdle;
    const std::uint64_t key1 = has1 ? in[r1]->dest : kIdle;
    const bool swap = (key0 > key1) == ascending && key0 != key1;

    const PortId out_for_in0 = swap ? r1 : r0;
    const PortId out_for_in1 = swap ? r0 : r1;

    // Both outputs of a 2x2 comparator always exist, so two words never
    // block each other; the only reason to wait is a downstream stall
    // (possible when the banyan section back-pressures), in which case
    // the whole pair holds to keep the cohort intact.
    if ((has0 && out[out_for_in0].has_value()) ||
        (has1 && out[out_for_in1].has_value())) {
      link_conflicts_ += (has0 ? 1 : 0) + (has1 ? 1 : 0);
      continue;
    }

    unsigned moved = 0;
    if (has0) {
      move_word(stage, b, *in[r0], out_for_in0, false, nullptr);
      in[r0].reset();
      ++moved;
    }
    if (has1) {
      move_word(stage, b, *in[r1], out_for_in1, false, nullptr);
      in[r1].reset();
      ++moved;
    }
    charge_switch_activity(spec, moved);
  }
}

void BatcherBanyanFabric::tick_banyan_stage(unsigned stage,
                                            const StageSpec& spec,
                                            EgressSink& sink) {
  const auto stage_count = static_cast<unsigned>(stage_specs_.size());
  const bool last_stage = (stage == stage_count - 1);
  const unsigned b = spec.span_log2;
  auto& in = links_[stage];

  // Arbitration priority alternates every cycle, for every switch of the
  // stage in lockstep; one parity bit replaces the per-switch array.
  const char parity = banyan_parity_[stage];
  banyan_parity_[stage] ^= 1;

  for (unsigned sw = 0; sw < ports() / 2; ++sw) {
    const auto low = static_cast<unsigned>(sw & low_mask(b));
    const unsigned high = (sw >> b) << (b + 1);
    const PortId r0 = high | low;
    const PortId r1 = r0 | (1u << b);

    // Arbitration order: if both inputs carry the same packet, the
    // earlier sequence number must go first (word order); otherwise
    // alternate.
    PortId first_row = parity ? r1 : r0;
    PortId second_row = parity ? r0 : r1;
    if (in[r0].has_value() && in[r1].has_value() &&
        in[r0]->packet_id == in[r1]->packet_id) {
      const bool zero_first = in[r0]->seq < in[r1]->seq;
      first_row = zero_first ? r0 : r1;
      second_row = zero_first ? r1 : r0;
    }

    unsigned moved = 0;
    for (const PortId in_row : {first_row, second_row}) {
      if (!in[in_row].has_value()) continue;
      const Flit& slot = *in[in_row];
      const PortId out_row =
          (in_row & ~(PortId{1} << b)) |
          (static_cast<PortId>(bit_of(slot.dest, b)) << b);
      const bool free =
          last_stage || !links_[stage + 1][out_row].has_value();
      if (!free) {
        ++link_conflicts_;
        continue;  // stall in place; upstream back-pressures
      }
      move_word(stage, b, slot, out_row, last_stage, &sink);
      in[in_row].reset();
      ++moved;
    }
    charge_switch_activity(spec, moved);
  }
}

void BatcherBanyanFabric::tick(EgressSink& sink) {
  // Downstream stages first so each stage writes into slots its successor
  // already drained this cycle.
  for (unsigned stage = static_cast<unsigned>(stage_specs_.size());
       stage-- > 0;) {
    const StageSpec& spec = stage_specs_[stage];
    if (spec.sorter) {
      tick_sorter_stage(stage, spec);
    } else {
      tick_banyan_stage(stage, spec, sink);
    }
  }
}

bool BatcherBanyanFabric::idle() const {
  for (const auto& stage_links : links_) {
    for (const auto& slot : stage_links) {
      if (slot.has_value()) return false;
    }
  }
  return true;
}

}  // namespace sfab
