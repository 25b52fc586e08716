#include "router/voq.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bitops.hpp"

namespace sfab {

VoqBank::VoqBank(PortId port, unsigned egress_ports,
                 std::size_t capacity_packets, PacketArena& arena)
    : port_(port),
      arena_(&arena),
      capacity_(capacity_packets),
      queues_(egress_ports),
      occupancy_(bitmask_words(egress_ports), 0) {
  if (egress_ports < 2) throw std::invalid_argument("VoqBank: ports >= 2");
  if (capacity_packets < 1) {
    throw std::invalid_argument("VoqBank: capacity >= 1 packet");
  }
}

bool VoqBank::enqueue(const Packet& packet) {
  if (packet.dest >= queues_.size()) {
    throw std::out_of_range("VoqBank: destination out of range");
  }
  if (total_ >= capacity_) {
    ++drops_;
    arena_->release(packet);
    return false;
  }
  queues_[packet.dest].push_back(packet);
  set_bit(occupancy_.data(), packet.dest);
  ++total_;
  return true;
}

bool VoqBank::has_packet_for(PortId egress) const {
  if (egress >= queues_.size()) throw std::out_of_range("VoqBank: egress");
  return !queues_[egress].empty();
}

Packet VoqBank::pop(PortId egress) {
  if (!has_packet_for(egress)) {
    throw std::logic_error("VoqBank: pop from empty VOQ");
  }
  const Packet p = queues_[egress].front();
  queues_[egress].pop_front();
  if (queues_[egress].empty()) clear_bit(occupancy_.data(), egress);
  --total_;
  return p;
}

IslipArbiter::IslipArbiter(unsigned ports, unsigned iterations)
    : ports_(ports),
      iterations_(iterations == 0 ? ports : iterations),
      grant_pointer_(ports, 0),
      accept_pointer_(ports, 0),
      grant_(ports, kInvalidPort),
      ingress_matched_(ports, 0),
      egress_matched_(ports, 0) {
  if (ports < 2) throw std::invalid_argument("IslipArbiter: ports >= 2");
  flat_scratch_.reserve(static_cast<std::size_t>(ports) * ports);
  matches_.reserve(ports);
}

const std::vector<Match>& IslipArbiter::match_banks(
    const std::vector<VoqBank>& banks,
    const std::vector<std::uint64_t>& ingress_free,
    const std::vector<std::uint64_t>& egress_free) {
  if (banks.size() != ports_) {
    throw std::invalid_argument("IslipArbiter: bank count");
  }
  const std::size_t words = bitmask_words(ports_);
  if (ingress_free.size() != words || egress_free.size() != words) {
    throw std::invalid_argument("IslipArbiter: availability mask shape");
  }
  for (const VoqBank& bank : banks) {
    if (bank.occupancy_words().size() < words) {
      throw std::invalid_argument("IslipArbiter: bank egress count");
    }
  }

  std::fill(ingress_matched_.begin(), ingress_matched_.end(), 0);
  std::fill(egress_matched_.begin(), egress_matched_.end(), 0);
  matches_.clear();

  // Identical pointer walk to match_flat; the request test reads the
  // banks' occupancy bits gated by the availability masks instead of a
  // materialized matrix, so the two paths match match-for-match.
  for (unsigned iter = 0; iter < iterations_; ++iter) {
    std::fill(grant_.begin(), grant_.end(), kInvalidPort);
    for (PortId egress = 0; egress < ports_; ++egress) {
      if (egress_matched_[egress] || !test_bit(egress_free.data(), egress)) {
        continue;
      }
      const unsigned ingress =
          cyclic_first(ports_, grant_pointer_[egress], [&](unsigned i) {
            return !ingress_matched_[i] &&
                   test_bit(ingress_free.data(), i) &&
                   test_bit(banks[i].occupancy_words().data(), egress);
          });
      if (ingress < ports_) grant_[egress] = ingress;
    }

    bool any_accept = false;
    for (PortId ingress = 0; ingress < ports_; ++ingress) {
      if (ingress_matched_[ingress]) continue;
      const unsigned found =
          cyclic_first(ports_, accept_pointer_[ingress],
                       [&](unsigned e) { return grant_[e] == ingress; });
      if (found == ports_) continue;
      const PortId accepted = found;

      matches_.push_back(Match{ingress, accepted});
      ingress_matched_[ingress] = 1;
      egress_matched_[accepted] = 1;
      any_accept = true;
      if (iter == 0) {
        grant_pointer_[accepted] = (ingress + 1) % ports_;
        accept_pointer_[ingress] = (accepted + 1) % ports_;
      }
    }
    if (!any_accept) break;  // matching is maximal; further rounds are idle
  }
  return matches_;
}

const std::vector<Match>& IslipArbiter::match_flat(
    const std::vector<char>& requests) {
  if (requests.size() != static_cast<std::size_t>(ports_) * ports_) {
    throw std::invalid_argument("IslipArbiter: request matrix shape");
  }

  std::fill(ingress_matched_.begin(), ingress_matched_.end(), 0);
  std::fill(egress_matched_.begin(), egress_matched_.end(), 0);
  matches_.clear();

  for (unsigned iter = 0; iter < iterations_; ++iter) {
    // Grant phase: each unmatched egress grants the first requesting,
    // unmatched ingress at or after its grant pointer.
    std::fill(grant_.begin(), grant_.end(), kInvalidPort);
    for (PortId egress = 0; egress < ports_; ++egress) {
      if (egress_matched_[egress]) continue;
      const unsigned ingress =
          cyclic_first(ports_, grant_pointer_[egress], [&](unsigned i) {
            return !ingress_matched_[i] &&
                   requests[static_cast<std::size_t>(i) * ports_ + egress];
          });
      if (ingress < ports_) grant_[egress] = ingress;
    }

    // Accept phase: each ingress accepts the first granting egress at or
    // after its accept pointer.
    bool any_accept = false;
    for (PortId ingress = 0; ingress < ports_; ++ingress) {
      if (ingress_matched_[ingress]) continue;
      const unsigned found =
          cyclic_first(ports_, accept_pointer_[ingress],
                       [&](unsigned e) { return grant_[e] == ingress; });
      if (found == ports_) continue;
      const PortId accepted = found;

      matches_.push_back(Match{ingress, accepted});
      ingress_matched_[ingress] = 1;
      egress_matched_[accepted] = 1;
      any_accept = true;
      // Pointers advance one past the accepted partner, and only on the
      // first iteration (the iSLIP rule that prevents starvation).
      if (iter == 0) {
        grant_pointer_[accepted] = (ingress + 1) % ports_;
        accept_pointer_[ingress] = (accepted + 1) % ports_;
      }
    }
    if (!any_accept) break;  // matching is maximal; further rounds are idle
  }
  return matches_;
}

std::vector<Match> IslipArbiter::match(
    const std::vector<std::vector<char>>& requests) {
  if (requests.size() != ports_) {
    throw std::invalid_argument("IslipArbiter: request matrix shape");
  }
  for (const auto& row : requests) {
    if (row.size() != ports_) {
      throw std::invalid_argument("IslipArbiter: request matrix shape");
    }
  }
  flat_scratch_.assign(static_cast<std::size_t>(ports_) * ports_, 0);
  for (PortId i = 0; i < ports_; ++i) {
    for (PortId j = 0; j < ports_; ++j) {
      flat_scratch_[static_cast<std::size_t>(i) * ports_ + j] =
          requests[i][j];
    }
  }
  return match_flat(flat_scratch_);
}

}  // namespace sfab
