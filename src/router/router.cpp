#include "router/router.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace sfab {

Router::Router(std::unique_ptr<SwitchFabric> fabric, TrafficGenerator traffic,
               RouterConfig config)
    : Router(std::move(fabric),
             std::make_unique<TrafficGenerator>(std::move(traffic)), config) {}

Router::Router(std::unique_ptr<SwitchFabric> fabric,
               std::unique_ptr<TrafficSource> traffic, RouterConfig config)
    : fabric_(std::move(fabric)),
      traffic_(std::move(traffic)),
      arbiter_(fabric_ ? fabric_->ports() : 2),
      egress_(fabric_ ? fabric_->ports() : 2) {
  if (!fabric_) throw std::invalid_argument("Router: null fabric");
  if (!traffic_) throw std::invalid_argument("Router: null traffic source");
  if (traffic_->ports() != fabric_->ports()) {
    throw std::invalid_argument("Router: traffic/fabric port mismatch");
  }
  ingresses_.reserve(fabric_->ports());
  for (PortId p = 0; p < fabric_->ports(); ++p) {
    ingresses_.emplace_back(p, config.ingress_queue_packets, arena_);
  }
  contenders_.resize(fabric_->ports());
  for (auto& list : contenders_) list.reserve(fabric_->ports());
  requests_.reserve(fabric_->ports());
  arrivals_.reserve(fabric_->ports());
}

void Router::step() {
  egress_.set_now(cycle_);

  const bool small_radix = ports() <= 64;

  // 1. Traffic arrivals into the input queues. A packet accepted by an
  // idle, empty ingress becomes that port's head-of-line packet and joins
  // its destination's contender list.
  if (traffic_enabled_) {
    arrivals_.clear();
    traffic_->poll_cycle(cycle_, arena_, arrivals_);
    for (const Packet& packet : arrivals_) {
      IngressUnit& in = ingresses_[packet.source];
      const bool becomes_hol = !in.streaming() && in.queued_packets() == 0;
      if (in.enqueue(packet, cycle_) && becomes_hol) {
        add_contender(packet.dest, packet.source);
      }
    }
  }

  // 2. Arbitration of head-of-line packets onto free egresses. Requests
  // come from the incrementally-maintained contender lists instead of an
  // all-ports scan, and locked egresses contribute none (the arbiter
  // ignored those requests anyway): at saturation nearly every egress is
  // locked, so the arbiter only sees the contenders of just-freed ports.
  // Winner selection inside arbitrate() is order-independent and the mask
  // walks ascending, so the grants are identical to a scan-built list's.
  requests_.clear();
  if (small_radix) {
    for_each_set_bit(contender_mask_ & ~arbiter_.locked_mask(), 0,
                     [&](unsigned bit) {
                       const auto e = static_cast<PortId>(bit);
                       for (const PortId p : contenders_[e]) {
                         requests_.push_back(ArbiterRequest{
                             p, e, ingresses_[p].head_since()});
                       }
                     });
  } else {
    for (PortId e = 0; e < ports(); ++e) {
      if (contenders_[e].empty() || arbiter_.locked(e)) continue;
      for (const PortId p : contenders_[e]) {
        requests_.push_back(ArbiterRequest{p, e, ingresses_[p].head_since()});
      }
    }
  }
  if (!requests_.empty()) {
    for (const ArbiterRequest& grant : arbiter_.arbitrate(requests_)) {
      arbiter_.lock(grant.egress);
      ingresses_[grant.ingress].grant(cycle_);
      streaming_mask_ |= mask_bit(grant.ingress);
      egress_.note_head_injected(
          ingresses_[grant.ingress].streaming_packet_id(), cycle_);
      remove_contender(grant.egress, grant.ingress);
      ++grants_;
    }
  }

  // 3. Word injection, with back-pressure.
  const bool fixed_latency = fabric_->fixed_latency();
  const auto try_inject = [&](PortId p) {
    IngressUnit& in = ingresses_[p];
    if (!fabric_->can_accept(p)) return;
    const Flit flit = in.peek_flit();
    fabric_->inject(p, flit);
    in.advance(cycle_);
    if (flit.tail) {
      streaming_mask_ &= ~mask_bit(p);
      // Egress frees at tail injection for fixed-latency pipelines;
      // buffered fabrics wait for the tail to come out (step 5).
      if (fixed_latency) arbiter_.unlock(flit.dest);
      // The next queued packet (if any) just became head-of-line.
      if (const Packet* hol = in.head_of_line()) {
        add_contender(hol->dest, p);
      }
    }
  };
  if (small_radix) {
    // for_each_set_bit walks a copy of the mask, so try_inject clearing
    // tail bits out of streaming_mask_ mid-walk is safe.
    for_each_set_bit(streaming_mask_, 0, [&](unsigned p) {
      try_inject(static_cast<PortId>(p));
    });
  } else {
    for (PortId p = 0; p < ports(); ++p) {
      if (ingresses_[p].streaming()) try_inject(p);
    }
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

const IngressUnit& Router::ingress(PortId port) const {
  if (port >= ingresses_.size()) throw std::out_of_range("Router: bad port");
  return ingresses_[port];
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
