// Router variant with virtual output queues and iSLIP matching — the
// framework extension that lifts the 58.6% HOL throughput cap (see
// router/voq.hpp). Fabric-facing behavior is identical to Router: at most
// one packet in flight per egress, one word injected per ingress per
// cycle, back-pressure respected.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "fabric/fabric.hpp"
#include "router/egress.hpp"
#include "router/voq.hpp"
#include "traffic/generator.hpp"
#include "traffic/source.hpp"

namespace sfab {

struct VoqRouterConfig {
  /// Shared packet capacity per ingress VOQ bank.
  std::size_t ingress_queue_packets = 64;
  /// iSLIP request/grant/accept rounds per cycle (0 = until maximal).
  unsigned islip_iterations = 0;
};

class VoqRouter {
 public:
  VoqRouter(std::unique_ptr<SwitchFabric> fabric,
            std::unique_ptr<TrafficSource> traffic,
            VoqRouterConfig config = {});

  /// Convenience: wraps a concrete generator (the common case).
  VoqRouter(std::unique_ptr<SwitchFabric> fabric, TrafficGenerator traffic,
            VoqRouterConfig config = {});

  // Immovable: the VOQ banks hold pointers into the by-value arena_,
  // which a move would dangle (see Router).
  VoqRouter(const VoqRouter&) = delete;
  VoqRouter& operator=(const VoqRouter&) = delete;
  VoqRouter(VoqRouter&&) = delete;
  VoqRouter& operator=(VoqRouter&&) = delete;

  void step();
  void run(Cycle cycles);
  void set_traffic_enabled(bool enabled) noexcept {
    traffic_enabled_ = enabled;
  }
  /// Runs with traffic off until empty; false if max_cycles elapsed first.
  bool drain(Cycle max_cycles);

  [[nodiscard]] Cycle now() const noexcept { return cycle_; }
  [[nodiscard]] unsigned ports() const noexcept { return fabric_->ports(); }
  [[nodiscard]] SwitchFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const SwitchFabric& fabric() const noexcept {
    return *fabric_;
  }
  [[nodiscard]] EgressCollector& egress() noexcept { return egress_; }
  [[nodiscard]] const EgressCollector& egress() const noexcept {
    return egress_;
  }
  [[nodiscard]] std::uint64_t total_drops() const;
  [[nodiscard]] std::size_t total_queued() const;
  [[nodiscard]] bool quiescent() const;

  /// iSLIP matches granted since construction (one per packet admitted
  /// to the fabric); the probes' grant-rate series.
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }

  /// The arena backing every queued packet's words (introspection).
  [[nodiscard]] const PacketArena& arena() const noexcept { return arena_; }

 private:
  struct StreamingPacket {
    Packet packet;
    std::uint32_t word = 0;
  };

  std::unique_ptr<SwitchFabric> fabric_;
  std::unique_ptr<TrafficSource> traffic_;
  PacketArena arena_;  ///< owns all packet words; declared before banks_
  IslipArbiter islip_;
  EgressCollector egress_;
  std::vector<VoqBank> banks_;
  std::vector<std::optional<StreamingPacket>> streaming_;
  // Availability bitmasks for the arbiter (bit set = available), updated
  // where streaming slots and egress locks change instead of being
  // recomputed: together with the banks' occupancy rows they replace the
  // per-cycle ports x ports request-matrix rebuild.
  std::vector<std::uint64_t> ingress_free_;
  std::vector<std::uint64_t> egress_free_;
  std::vector<Packet> arrivals_;  ///< per-cycle scratch
  Cycle cycle_ = 0;
  std::uint64_t grants_ = 0;
  bool traffic_enabled_ = true;
};

}  // namespace sfab
