// Egress process units: throughput measurement point (paper section 5.2).
//
// The paper measures throughput at the egress units; this sink counts
// delivered words and packets per port and records packet latencies
// (injection-grant to tail-delivery) so experiments can report both power
// and delay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fabric/fabric.hpp"

namespace sfab {

class EgressCollector final : public EgressSink {
 public:
  explicit EgressCollector(unsigned ports);

  /// Inline: the fabrics call this once per delivered word. The global
  /// word count is derived lazily from the per-port counters
  /// (words_delivered()), keeping this path at one counter bump per word.
  void deliver(PortId egress, const Flit& flit) override {
    if (egress >= ports_) throw std::out_of_range("EgressCollector: bad port");
    ++words_per_port_[egress];
    if (!flit.tail) return;

    ++total_packets_;
    pending_unlocks_.push_back(egress);
    const auto it = std::find_if(
        inflight_heads_.begin(), inflight_heads_.end(),
        [&](const auto& entry) { return entry.first == flit.packet_id; });
    if (it != inflight_heads_.end()) {
      const Cycle latency = now_ - it->second;
      latency_sum_ += static_cast<double>(latency);
      ++latency_count_;
      max_latency_ = std::max(max_latency_, latency);
      inflight_heads_.erase(it);
    }
  }

  /// Hook called by the router before tick() so latency can be measured;
  /// records when each packet's head was injected.
  void note_head_injected(std::uint64_t packet_id, Cycle now) {
    inflight_heads_.emplace_back(packet_id, now);
  }
  /// The router advances this clock each cycle.
  void set_now(Cycle now) noexcept { now_ = now; }

  /// Tail flits delivered since construction whose egress should unlock;
  /// drained by the router each cycle.
  [[nodiscard]] std::vector<PortId>& pending_unlocks() noexcept {
    return pending_unlocks_;
  }

  // --- measurements ----------------------------------------------------------
  [[nodiscard]] std::uint64_t words_delivered() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t words : words_per_port_) total += words;
    return total;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const noexcept {
    return total_packets_;
  }
  [[nodiscard]] std::uint64_t words_at(PortId egress) const;
  /// Per-port delivered-word counters (index = egress port); the probes
  /// snapshot this without copying.
  [[nodiscard]] const std::vector<std::uint64_t>& words_per_port()
      const noexcept {
    return words_per_port_;
  }

  /// Mean packet latency in cycles (head injected -> tail delivered).
  [[nodiscard]] double mean_packet_latency() const;
  [[nodiscard]] Cycle max_packet_latency() const noexcept {
    return max_latency_;
  }

  /// Egress throughput in words per port per cycle over `cycles`.
  [[nodiscard]] double throughput(Cycle cycles) const;

  void reset_counters();

 private:
  unsigned ports_;
  Cycle now_ = 0;
  std::vector<std::uint64_t> words_per_port_;
  std::uint64_t total_packets_ = 0;
  double latency_sum_ = 0.0;
  std::uint64_t latency_count_ = 0;
  Cycle max_latency_ = 0;
  std::vector<PortId> pending_unlocks_;
  /// packet id -> head-injection cycle (bounded: at most N in flight).
  std::vector<std::pair<std::uint64_t, Cycle>> inflight_heads_;
};

}  // namespace sfab
