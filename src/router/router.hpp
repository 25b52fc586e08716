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
//
// This is the reference form of the paper's router: each step scans the
// ingress units once for head-of-line requests and once for words to
// inject. The packet engine (sim/lane_sim.hpp) runs the same cycle order
// and is pinned against this class bit for bit.
#pragma once

#include <memory>

#include "fabric/fabric.hpp"
#include "router/arbiter.hpp"
#include "router/egress.hpp"
#include "router/ingress.hpp"
#include "traffic/generator.hpp"

namespace sfab {

struct RouterConfig {
  /// Ingress input-queue capacity in whole packets.
  std::size_t ingress_queue_packets = 64;
};

class Router {
 public:
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
  std::unique_ptr<SwitchFabric> fabric_;
  TrafficGenerator traffic_;
  PacketArena arena_;  ///< owns all packet words; declared before ingresses_
  Arbiter arbiter_;
  EgressCollector egress_;
  std::vector<IngressUnit> ingresses_;
  std::vector<ArbiterRequest> requests_;  ///< per-cycle scratch
  std::vector<Packet> arrivals_;          ///< per-cycle scratch
  Cycle cycle_ = 0;
  std::uint64_t grants_ = 0;
  bool traffic_enabled_ = true;
};

}  // namespace sfab
