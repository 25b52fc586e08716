// Virtual output queueing + iSLIP arbitration (framework extension).
//
// The paper's input-buffered router saturates at the classic head-of-line
// limit 2 - sqrt(2) = 58.6%. The standard cure — one queue per (ingress,
// egress) pair and an iterative round-robin matching (iSLIP, McKeown 1999)
// — removes HOL blocking entirely; with packet-granularity grants the
// saturation throughput approaches the line rate. This module provides
// both pieces so experiments can quantify what the paper's throughput cap
// costs and how fabric power responds when the fabric is actually loaded
// to 90%+. Each VOQ is a std::deque of arena handles under the bank's
// shared capacity; the matcher reads the banks' occupancy rows
// (match_banks), and match_flat is its plain request-matrix reference.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"
#include "traffic/packet.hpp"

namespace sfab {

/// Per-ingress bank of virtual output queues (one FIFO per egress).
class VoqBank {
 public:
  /// `capacity_packets` bounds the *total* packets queued across all VOQs
  /// of this ingress (shared memory, like the paper's input buffers). The
  /// arena must outlive the bank; dropped packets are released back to it.
  VoqBank(PortId port, unsigned egress_ports, std::size_t capacity_packets,
          PacketArena& arena);

  /// Queues an arriving packet in its destination's VOQ; when the shared
  /// capacity is exhausted the packet is dropped: counted, released back
  /// to the arena, and false returned.
  bool enqueue(const Packet& packet);

  /// True if the VOQ toward `egress` has a packet waiting.
  [[nodiscard]] bool has_packet_for(PortId egress) const;

  /// Pops the head packet of the VOQ toward `egress` (must be non-empty).
  /// Ownership of the handle passes to the caller.
  [[nodiscard]] Packet pop(PortId egress);

  /// Occupancy bitmask over egresses (bit e of word e/64 set iff the VOQ
  /// toward e is non-empty), maintained incrementally on enqueue/pop.
  /// This is the bank's request row for iSLIP: the arbiter reads it
  /// directly instead of the router rebuilding a ports x ports request
  /// matrix from per-queue probes every cycle.
  [[nodiscard]] const std::vector<std::uint64_t>& occupancy_words()
      const noexcept {
    return occupancy_;
  }

  [[nodiscard]] std::size_t total_queued() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] PortId port() const noexcept { return port_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

 private:
  PortId port_;
  PacketArena* arena_;
  std::size_t capacity_;
  std::vector<std::deque<Packet>> queues_;
  std::vector<std::uint64_t> occupancy_;  // bit e = VOQ e non-empty
  std::size_t total_ = 0;
  std::uint64_t drops_ = 0;
};

/// One (ingress, egress) pairing produced by the matcher.
struct Match {
  PortId ingress = kInvalidPort;
  PortId egress = kInvalidPort;
};

/// iSLIP: iterative request/grant/accept matching with round-robin
/// pointers that advance only on first-iteration accepts (the "slip" that
/// desynchronizes the pointers and yields near-100% throughput).
class IslipArbiter {
 public:
  /// `iterations` = 0 (default) iterates until the matching is maximal
  /// (at most N rounds); a positive value caps the rounds, modeling a
  /// hardware arbiter with a fixed iteration budget.
  explicit IslipArbiter(unsigned ports, unsigned iterations = 0);

  /// Hot path: requests come straight from the banks' incrementally
  /// maintained occupancy bitmasks (VoqBank::occupancy_words), gated by
  /// availability masks (bit set = available): the effective request
  /// (i, j) is occupancy(i, j) && ingress_free[i] && egress_free[j] —
  /// exactly the matrix the router used to rebuild element-by-element
  /// every cycle. Word counts must be bitmask_words(ports). Returns a
  /// conflict-free matching valid until the next call (internal scratch,
  /// no allocation), identical match-for-match to match_flat over that
  /// matrix.
  [[nodiscard]] const std::vector<Match>& match_banks(
      const std::vector<VoqBank>& banks,
      const std::vector<std::uint64_t>& ingress_free,
      const std::vector<std::uint64_t>& egress_free);

  /// Reference path: `requests` is a row-major ports x ports matrix where
  /// requests[i * ports + j] != 0 means ingress i has traffic for egress j
  /// and both are available this cycle. Same contract as match_banks.
  [[nodiscard]] const std::vector<Match>& match_flat(
      const std::vector<char>& requests);

  /// Convenience wrapper over match_flat for tests and ad-hoc callers.
  [[nodiscard]] std::vector<Match> match(
      const std::vector<std::vector<char>>& requests);

  [[nodiscard]] unsigned ports() const noexcept { return ports_; }

 private:
  unsigned ports_;
  unsigned iterations_;
  std::vector<PortId> grant_pointer_;   // per egress
  std::vector<PortId> accept_pointer_;  // per ingress
  // Per-call scratch, sized once at construction.
  std::vector<PortId> grant_;           // per egress; kInvalidPort = none
  std::vector<char> ingress_matched_;
  std::vector<char> egress_matched_;
  std::vector<char> flat_scratch_;      // for the 2-D convenience wrapper
  std::vector<Match> matches_;
};

}  // namespace sfab
