#include "router/router.hpp"

#include <stdexcept>

namespace sfab {

Router::Router(std::unique_ptr<SwitchFabric> fabric, TrafficGenerator traffic,
               RouterConfig config)
    : fabric_(std::move(fabric)),
      traffic_(std::move(traffic)),
      arbiter_(fabric_ ? fabric_->ports() : 2),
      egress_(fabric_ ? fabric_->ports() : 2) {
  if (!fabric_) throw std::invalid_argument("Router: null fabric");
  if (traffic_.ports() != fabric_->ports()) {
    throw std::invalid_argument("Router: traffic/fabric port mismatch");
  }
  ingresses_.reserve(fabric_->ports());
  for (PortId p = 0; p < fabric_->ports(); ++p) {
    ingresses_.emplace_back(p, config.ingress_queue_packets, arena_);
  }
  requests_.reserve(fabric_->ports());
  arrivals_.reserve(fabric_->ports());
}

void Router::step() {
  egress_.set_now(cycle_);

  // 1. Traffic arrivals into the input queues.
  if (traffic_enabled_) {
    arrivals_.clear();
    traffic_.poll_cycle(cycle_, arena_, arrivals_);
    for (const Packet& packet : arrivals_) {
      ingresses_[packet.source].enqueue(packet, cycle_);
    }
  }

  // 2. Arbitration: every idle ingress with a queued packet requests that
  // packet's egress; the arbiter grants free egresses only.
  requests_.clear();
  for (PortId p = 0; p < ports(); ++p) {
    if (const Packet* hol = ingresses_[p].head_of_line()) {
      requests_.push_back(
          ArbiterRequest{p, hol->dest, ingresses_[p].head_since()});
    }
  }
  for (const ArbiterRequest& grant : arbiter_.arbitrate(requests_)) {
    arbiter_.lock(grant.egress);
    ingresses_[grant.ingress].grant(cycle_);
    egress_.note_head_injected(
        ingresses_[grant.ingress].streaming_packet_id(), cycle_);
    ++grants_;
  }

  // 3. Word injection, with back-pressure.
  const bool fixed_latency = fabric_->fixed_latency();
  for (PortId p = 0; p < ports(); ++p) {
    IngressUnit& in = ingresses_[p];
    if (!in.streaming() || !fabric_->can_accept(p)) continue;
    const Flit flit = in.peek_flit();
    fabric_->inject(p, flit);
    in.advance(cycle_);
    // Egress frees at tail injection for fixed-latency pipelines;
    // buffered fabrics wait for the tail to come out (step 5).
    if (flit.tail && fixed_latency) arbiter_.unlock(flit.dest);
  }

  // 4. Fabric advances; deliveries hit the egress collector.
  fabric_->tick(egress_);

  // 5. Unlock egresses whose packet tail arrived (variable-latency
  // fabrics only; fixed-latency ones already unlocked at tail injection).
  if (!fixed_latency) {
    for (const PortId egress : egress_.pending_unlocks()) {
      arbiter_.unlock(egress);
    }
  }
  egress_.pending_unlocks().clear();

  ++cycle_;
}

void Router::run(Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) step();
}

bool Router::drain(Cycle max_cycles) {
  set_traffic_enabled(false);
  for (Cycle c = 0; c < max_cycles; ++c) {
    if (quiescent()) return true;
    step();
  }
  return quiescent();
}

std::uint64_t Router::total_drops() const {
  std::uint64_t sum = 0;
  for (const IngressUnit& in : ingresses_) sum += in.drops();
  return sum;
}

std::size_t Router::total_queued() const {
  std::size_t sum = 0;
  for (const IngressUnit& in : ingresses_) sum += in.queued_packets();
  return sum;
}

bool Router::quiescent() const {
  if (!fabric_->idle()) return false;
  for (const IngressUnit& in : ingresses_) {
    if (!in.empty()) return false;
  }
  return true;
}

}  // namespace sfab
