// The network router: ingress units + arbiter + switch fabric + egress
// units wired together (paper Fig. 1), driven one cycle at a time.
//
// Cycle order (all within step()):
//   1. traffic generation into the ingress input queues (input-buffered
//      scheme; these queues are outside the fabric and cost no fabric power)
//   2. FCFS/round-robin arbitration of head-of-line packets onto free
//      egress ports (destination-contention resolution)
//   3. word injection: every streaming ingress pushes one word into the
//      fabric when the fabric can accept it (back-pressure otherwise)
//   4. fabric tick: words advance, deliveries land at the egress collector
//   5. egress unlock for packets whose tail word was just delivered
#pragma once

#include <memory>

#include "fabric/fabric.hpp"
#include "router/arbiter.hpp"
#include "router/egress.hpp"
#include "router/ingress.hpp"
#include "traffic/generator.hpp"
#include "traffic/source.hpp"

namespace sfab {

struct RouterConfig {
  /// Ingress input-queue capacity in whole packets.
  std::size_t ingress_queue_packets = 64;
};

class Router {
 public:
  Router(std::unique_ptr<SwitchFabric> fabric,
         std::unique_ptr<TrafficSource> traffic, RouterConfig config = {});

  /// Convenience: wraps a concrete generator (the common case).
  Router(std::unique_ptr<SwitchFabric> fabric, TrafficGenerator traffic,
         RouterConfig config = {});

  // Immovable: the ingress units hold pointers into the by-value arena_,
  // which a move would dangle. Factory-style returns still work through
  // guaranteed copy elision.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  Router(Router&&) = delete;
  Router& operator=(Router&&) = delete;

  /// Advances one clock cycle.
  void step();

  /// Runs `cycles` cycles.
  void run(Cycle cycles);

  /// Stops traffic generation (drain mode) or restarts it.
  void set_traffic_enabled(bool enabled) noexcept {
    traffic_enabled_ = enabled;
  }

  /// Runs with traffic off until every queue and the fabric are empty;
  /// returns false if `max_cycles` elapsed first. Traffic stays disabled.
  bool drain(Cycle max_cycles);

  // --- access ------------------------------------------------------------------
  [[nodiscard]] Cycle now() const noexcept { return cycle_; }
  [[nodiscard]] unsigned ports() const noexcept { return fabric_->ports(); }
  [[nodiscard]] SwitchFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const SwitchFabric& fabric() const noexcept { return *fabric_; }
  [[nodiscard]] EgressCollector& egress() noexcept { return egress_; }
  [[nodiscard]] const EgressCollector& egress() const noexcept {
    return egress_;
  }
  [[nodiscard]] const IngressUnit& ingress(PortId port) const;
  [[nodiscard]] const Arbiter& arbiter() const noexcept { return arbiter_; }

  /// Arbitration grants since construction (one per packet admitted to
  /// the fabric); the probes' grant-rate series.
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }

  /// Sum of input-queue drops over all ingress units.
  [[nodiscard]] std::uint64_t total_drops() const;
  /// Packets currently queued across all ingress units.
  [[nodiscard]] std::size_t total_queued() const;
  /// True when all queues are empty and the fabric is idle.
  [[nodiscard]] bool quiescent() const;

  /// The arena backing every queued packet's words (introspection).
  [[nodiscard]] const PacketArena& arena() const noexcept { return arena_; }

 private:
  [[nodiscard]] static std::uint64_t mask_bit(PortId p) noexcept {
    return p < 64 ? std::uint64_t{1} << p : 0;
  }
  void add_contender(PortId egress, PortId ingress) {
    contenders_[egress].push_back(ingress);
    contender_mask_ |= mask_bit(egress);
  }
  void remove_contender(PortId egress, PortId ingress) {
    auto& list = contenders_[egress];
    for (std::size_t k = 0; k < list.size(); ++k) {
      if (list[k] == ingress) {
        list[k] = list.back();
        list.pop_back();
        break;
      }
    }
    if (list.empty()) contender_mask_ &= ~mask_bit(egress);
  }

  std::unique_ptr<SwitchFabric> fabric_;
  std::unique_ptr<TrafficSource> traffic_;
  PacketArena arena_;  ///< owns all packet words; declared before ingresses_
  Arbiter arbiter_;
  EgressCollector egress_;
  std::vector<IngressUnit> ingresses_;
  /// contenders_[egress] = ingresses whose head-of-line packet targets it,
  /// maintained incrementally (HOL appears on enqueue-to-idle and on packet
  /// retirement, disappears on grant). Replaces an every-cycle scan of all
  /// ingress units with work proportional to actual HOL churn.
  std::vector<std::vector<PortId>> contenders_;
  /// Bit e set = contenders_[e] non-empty; bit p set = ingress p streaming.
  /// Used for mask iteration when ports <= 64 (bit-identical: masks are
  /// walked in ascending index order, same as the scans they replace).
  std::uint64_t contender_mask_ = 0;
  std::uint64_t streaming_mask_ = 0;
  std::vector<ArbiterRequest> requests_;  ///< per-cycle scratch
  std::vector<Packet> arrivals_;          ///< per-cycle scratch
  Cycle cycle_ = 0;
  std::uint64_t grants_ = 0;
  bool traffic_enabled_ = true;
};

}  // namespace sfab
