// Ingress process unit (paper section 2 / 5.2).
//
// Each ingress port owns an input queue of whole packets (the paper's input
// buffering scheme for destination contention: these queues sit *outside*
// the switch fabric and are not charged to fabric power). The head-of-line
// packet waits for an arbiter grant, then streams into the fabric one word
// per cycle, read straight out of the packet arena's slab. Everything here
// is inline and allocation-free: the queue is a fixed ring of POD handles.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/types.hpp"
#include "fabric/fabric.hpp"  // Flit
#include "router/packet_ring.hpp"
#include "traffic/packet.hpp"

namespace sfab {

class IngressUnit {
 public:
  /// `queue_packets` is the input-queue capacity in whole packets. The
  /// arena must outlive this unit; queued packets' handles are released
  /// back to it on drop and on tail injection.
  IngressUnit(PortId port, std::size_t queue_packets, PacketArena& arena)
      : port_(port), arena_(&arena), queue_(queue_packets) {}

  /// Queues an arriving packet; on a full queue the packet is dropped:
  /// counted, released back to the arena, and false returned.
  bool enqueue(const Packet& packet, Cycle now) {
    if (queue_.full()) {
      ++drops_;
      arena_->release(packet);
      return false;
    }
    const bool was_empty = queue_.empty();
    queue_.push(packet);
    if (was_empty && !streaming_) head_since_ = now;
    return true;
  }

  /// Head-of-line packet awaiting a grant (nullptr if none or streaming).
  [[nodiscard]] const Packet* head_of_line() const {
    if (streaming_ || queue_.empty()) return nullptr;
    return &queue_.front();
  }

  /// Cycle the current head-of-line packet reached the queue head (for the
  /// arbiter's FCFS ordering).
  [[nodiscard]] Cycle head_since() const { return head_since_; }

  /// True while a granted packet still has words to send.
  [[nodiscard]] bool streaming() const noexcept { return streaming_; }

  /// Arbiter grant: begins streaming the head-of-line packet.
  void grant(Cycle /*now*/) {
    if (streaming_) {
      throw std::logic_error("IngressUnit: grant while streaming");
    }
    if (queue_.empty()) {
      throw std::logic_error("IngressUnit: grant on empty queue");
    }
    streaming_ = true;
    word_index_ = 0;
  }

  /// Next word to inject (valid only while streaming()).
  [[nodiscard]] Word peek_word() const {
    check_streaming();
    return arena_->word(queue_.front(), word_index_);
  }

  /// The full flit for the current word in one call — one queue-front load
  /// instead of five accessor round-trips.
  [[nodiscard]] Flit peek_flit() const {
    check_streaming();
    const Packet& p = queue_.front();
    Flit flit;
    flit.data = arena_->word(p, word_index_);
    flit.dest = p.dest;
    flit.tail = word_index_ + 1 == p.word_count;
    flit.packet_id = p.id;
    flit.seq = word_index_;
    return flit;
  }

  [[nodiscard]] bool peek_is_tail() const {
    check_streaming();
    return word_index_ + 1 == queue_.front().word_count;
  }
  [[nodiscard]] std::uint64_t streaming_packet_id() const {
    check_streaming();
    return queue_.front().id;
  }
  [[nodiscard]] PortId streaming_dest() const {
    check_streaming();
    return queue_.front().dest;
  }
  /// Index of the word peek_word() returns (0 = header).
  [[nodiscard]] std::uint32_t streaming_word_index() const {
    check_streaming();
    return word_index_;
  }

  /// Marks the current word as injected; advances to the next word and
  /// retires the packet (releasing its arena block) when the tail goes out.
  void advance(Cycle now) {
    check_streaming();
    ++word_index_;
    if (word_index_ == queue_.front().word_count) {
      arena_->release(queue_.front());
      queue_.pop();
      streaming_ = false;
      word_index_ = 0;
      ++packets_sent_;
      head_since_ = now;  // the next packet (if any) becomes head now
    }
  }

  // --- stats -----------------------------------------------------------------
  [[nodiscard]] PortId port() const noexcept { return port_; }
  [[nodiscard]] std::size_t queued_packets() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t packets_sent() const noexcept {
    return packets_sent_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return queue_.empty() && !streaming_;
  }

 private:
  void check_streaming() const {
    if (!streaming_) throw std::logic_error("IngressUnit: not streaming");
  }

  PortId port_;
  PacketArena* arena_;
  PacketRing queue_;
  Cycle head_since_ = 0;
  bool streaming_ = false;
  std::uint32_t word_index_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace sfab
