// The arbitration unit (paper sections 2 and 5.2).
//
// First-come-first-serve with a round-robin tie-break: each cycle, every
// idle ingress with a head-of-line packet requests that packet's egress;
// for each *free* egress the requester whose packet has waited at the queue
// head longest wins, ties broken by a per-egress round-robin pointer. A
// granted egress stays locked until the packet's tail word is delivered out
// of the fabric, which is exactly how the paper removes destination
// contention from the fabrics' books: at most one packet is in flight
// toward any egress at any time. Head-of-line blocking of this scheme is
// what caps uniform-traffic throughput at the well-known 2 - sqrt(2) =
// 58.6 % the paper cites.
#pragma once

#include <stdexcept>
#include <vector>

#include "common/types.hpp"

namespace sfab {

struct ArbiterRequest {
  PortId ingress = kInvalidPort;
  PortId egress = kInvalidPort;
  /// Cycle the requesting packet reached its queue head (FCFS key).
  Cycle waiting_since = 0;
};

class Arbiter {
 public:
  explicit Arbiter(unsigned ports);

  /// Locks `egress` (a packet toward it is in flight).
  void lock(PortId egress);
  /// Unlocks `egress` (its packet's tail was delivered).
  void unlock(PortId egress);
  /// True while a packet toward `egress` is in flight.
  [[nodiscard]] bool locked(PortId egress) const {
    if (egress >= ports()) throw std::out_of_range("Arbiter: bad egress");
    return locked_[egress] != 0;
  }

  /// Resolves one cycle of requests: returns the winning ingress per
  /// requested free egress. Does NOT lock winners — callers lock after a
  /// successful grant hand-off (keeps this class side-effect free on the
  /// request path and easy to test). The returned reference points at
  /// internal scratch and is valid until the next arbitrate() call; no
  /// allocation happens per cycle.
  [[nodiscard]] const std::vector<ArbiterRequest>& arbitrate(
      const std::vector<ArbiterRequest>& requests);

  [[nodiscard]] unsigned ports() const noexcept {
    return static_cast<unsigned>(locked_.size());
  }

 private:
  std::vector<char> locked_;
  /// Round-robin pointer per egress for FCFS ties.
  std::vector<PortId> rr_next_;
  // Per-call scratch, sized once at construction.
  std::vector<ArbiterRequest> best_;  ///< incumbent winner per egress
  std::vector<char> best_valid_;
  std::vector<ArbiterRequest> grants_;
};

}  // namespace sfab
