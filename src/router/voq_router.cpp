#include "router/voq_router.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace sfab {

VoqRouter::VoqRouter(std::unique_ptr<SwitchFabric> fabric,
                     TrafficGenerator traffic, VoqRouterConfig config)
    : fabric_(std::move(fabric)),
      traffic_(std::move(traffic)),
      islip_(fabric_ ? fabric_->ports() : 2, config.islip_iterations),
      egress_(fabric_ ? fabric_->ports() : 2) {
  if (!fabric_) throw std::invalid_argument("VoqRouter: null fabric");
  if (traffic_.ports() != fabric_->ports()) {
    throw std::invalid_argument("VoqRouter: traffic/fabric port mismatch");
  }
  banks_.reserve(fabric_->ports());
  for (PortId p = 0; p < fabric_->ports(); ++p) {
    banks_.emplace_back(p, fabric_->ports(), config.ingress_queue_packets,
                        arena_);
  }
  streaming_.resize(fabric_->ports());
  ingress_free_.assign(bitmask_words(fabric_->ports()), 0);
  egress_free_.assign(bitmask_words(fabric_->ports()), 0);
  for (PortId p = 0; p < fabric_->ports(); ++p) {
    set_bit(ingress_free_.data(), p);
    set_bit(egress_free_.data(), p);
  }
  arrivals_.reserve(fabric_->ports());
}

void VoqRouter::step() {
  egress_.set_now(cycle_);

  // 1. Traffic arrivals into the VOQ banks.
  if (traffic_enabled_) {
    arrivals_.clear();
    traffic_.poll_cycle(cycle_, arena_, arrivals_);
    for (const Packet& packet : arrivals_) {
      banks_[packet.source].enqueue(packet);
    }
  }

  // 2. iSLIP matching between idle ingresses and free egresses. The
  // request matrix is never materialized: the banks' occupancy rows are
  // maintained on enqueue/pop and the availability masks where streaming
  // slots and egress locks change.
  for (const Match& m :
       islip_.match_banks(banks_, ingress_free_, egress_free_)) {
    StreamingPacket s;
    s.packet = banks_[m.ingress].pop(m.egress);
    egress_.note_head_injected(s.packet.id, cycle_);
    streaming_[m.ingress] = s;
    clear_bit(ingress_free_.data(), m.ingress);
    clear_bit(egress_free_.data(), m.egress);
    ++grants_;
  }

  // 3. Word injection, with back-pressure.
  const bool fixed_latency = fabric_->fixed_latency();
  for (PortId p = 0; p < ports(); ++p) {
    auto& slot = streaming_[p];
    if (!slot.has_value() || !fabric_->can_accept(p)) continue;
    const Packet& packet = slot->packet;
    Flit flit;
    flit.data = arena_.word(packet, slot->word);
    flit.dest = packet.dest;
    flit.tail = (slot->word + 1 == packet.word_count);
    flit.packet_id = packet.id;
    flit.seq = slot->word;
    fabric_->inject(p, flit);
    ++slot->word;
    if (flit.tail) {
      if (fixed_latency) set_bit(egress_free_.data(), flit.dest);
      arena_.release(packet);
      slot.reset();
      set_bit(ingress_free_.data(), p);
    }
  }

  // 4. Fabric advances; deliveries hit the egress collector.
  fabric_->tick(egress_);

  // 5. Variable-latency fabrics free their egress on tail delivery.
  if (!fixed_latency) {
    for (const PortId egress : egress_.pending_unlocks()) {
      set_bit(egress_free_.data(), egress);
    }
  }
  egress_.pending_unlocks().clear();

  ++cycle_;
}

void VoqRouter::run(Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) step();
}

bool VoqRouter::drain(Cycle max_cycles) {
  set_traffic_enabled(false);
  for (Cycle c = 0; c < max_cycles; ++c) {
    if (quiescent()) return true;
    step();
  }
  return quiescent();
}

std::uint64_t VoqRouter::total_drops() const {
  std::uint64_t sum = 0;
  for (const VoqBank& bank : banks_) sum += bank.drops();
  return sum;
}

std::size_t VoqRouter::total_queued() const {
  std::size_t sum = 0;
  for (const VoqBank& bank : banks_) sum += bank.total_queued();
  return sum;
}

bool VoqRouter::quiescent() const {
  if (!fabric_->idle()) return false;
  for (const VoqBank& bank : banks_) {
    if (!bank.empty()) return false;
  }
  for (const auto& slot : streaming_) {
    if (slot.has_value()) return false;
  }
  return true;
}

}  // namespace sfab
