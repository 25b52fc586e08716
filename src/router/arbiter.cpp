#include "router/arbiter.hpp"

#include <algorithm>
#include <stdexcept>

namespace sfab {

Arbiter::Arbiter(unsigned ports)
    : locked_(ports, 0),
      rr_next_(ports, 0),
      best_(ports),
      best_valid_(ports, 0) {
  if (ports < 2) throw std::invalid_argument("Arbiter: ports >= 2");
  grants_.reserve(ports);
}

void Arbiter::lock(PortId egress) {
  if (egress >= ports()) throw std::out_of_range("Arbiter: bad egress");
  if (locked_[egress]) throw std::logic_error("Arbiter: egress already locked");
  locked_[egress] = 1;
}

void Arbiter::unlock(PortId egress) {
  if (egress >= ports()) throw std::out_of_range("Arbiter: bad egress");
  if (!locked_[egress]) throw std::logic_error("Arbiter: egress not locked");
  locked_[egress] = 0;
}

const std::vector<ArbiterRequest>& Arbiter::arbitrate(
    const std::vector<ArbiterRequest>& requests) {
  // Best request per egress under (FCFS, round-robin distance) ordering.
  std::fill(best_valid_.begin(), best_valid_.end(), 0);

  const auto rr_distance = [this](PortId egress, PortId ingress) {
    // Positions ahead of the round-robin pointer win ties. ingress and the
    // pointer are both < ports, so one conditional subtract replaces the
    // modulo (this runs per tied request per cycle).
    const PortId d = ingress + ports() - rr_next_[egress];
    return d >= ports() ? d - ports() : d;
  };

  for (const ArbiterRequest& req : requests) {
    if (req.ingress >= ports() || req.egress >= ports()) {
      throw std::out_of_range("Arbiter: bad request port");
    }
    if (locked_[req.egress]) continue;
    ArbiterRequest& incumbent = best_[req.egress];
    if (!best_valid_[req.egress] ||
        req.waiting_since < incumbent.waiting_since ||
        (req.waiting_since == incumbent.waiting_since &&
         rr_distance(req.egress, req.ingress) <
             rr_distance(req.egress, incumbent.ingress))) {
      incumbent = req;
      best_valid_[req.egress] = 1;
    }
  }

  grants_.clear();
  for (PortId egress = 0; egress < ports(); ++egress) {
    if (!best_valid_[egress]) continue;
    grants_.push_back(best_[egress]);
    const PortId next = best_[egress].ingress + 1;
    rr_next_[egress] = next == ports() ? 0 : next;
  }
  return grants_;
}

}  // namespace sfab
