// Packet arena: the word slab behind the reference engine's packet handles.
//
// A simulation creates and retires on the order of one packet per port every
// few cycles; giving each packet its own heap-allocated word vector made the
// allocator the hot path (and serialized the sweep thread pool on it). The
// arena instead keeps every live packet's words in one contiguous slab and
// turns Packet into a POD *handle* — {id, source, dest, created, word_offset,
// word_count} — that queues copy by value. Freed word blocks are recycled by
// exact size, so in steady state the arena allocates nothing: the slab
// grows to the high-water mark of in-flight packets once and is then reused
// forever.
//
// Ownership protocol: whoever is handed a Packet (ingress queue, VOQ bank,
// streaming slot) must either pass it on or release() it back to the arena
// exactly once — on drop, or after its tail word has been injected into the
// fabric (flits carry copies of the words, so the slab block is dead the
// moment the last word leaves the ingress).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace sfab {

/// A packet as the routers queue it: a POD handle whose words live in a
/// PacketArena. words[0] (the header, carrying the destination address in
/// the low bits) is reached through the owning arena or a PacketView.
struct Packet {
  std::uint64_t id = 0;
  PortId source = kInvalidPort;
  PortId dest = kInvalidPort;
  Cycle created = 0;
  /// Offset of this packet's first word in the owning arena's slab.
  std::uint32_t word_offset = 0;
  /// Total words including the header word.
  std::uint32_t word_count = 0;

  [[nodiscard]] std::uint32_t size_words() const noexcept {
    return word_count;
  }
};

/// Borrowed, bounds-asserted view of one packet's words. Accessors assert in
/// debug builds and compile to unchecked loads in release — this sits on the
/// per-word streaming path, where the old bounds-checked words.at(0) showed
/// up in profiles.
class PacketView {
 public:
  PacketView(const Word* words, std::uint32_t count) noexcept
      : words_(words), count_(count) {}

  /// words[0]: the header word (destination address in the low bits).
  [[nodiscard]] Word header() const noexcept {
    assert(count_ >= 1);
    return words_[0];
  }
  [[nodiscard]] Word operator[](std::uint32_t index) const noexcept {
    assert(index < count_);
    return words_[index];
  }
  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] const Word* data() const noexcept { return words_; }

 private:
  const Word* words_;
  std::uint32_t count_;
};

/// One contiguous word slab plus per-size free lists of retired blocks.
/// Not thread-safe: each simulation owns its own arena (run_simulation
/// stays side-effect-free, which is what the sweep thread pool relies on).
class PacketArena {
 public:
  PacketArena() = default;

  /// Claims a block of `word_count` words and returns its slab offset.
  /// Recycles a retired block of the exact same size when one is free.
  [[nodiscard]] std::uint32_t allocate(std::uint32_t word_count) {
    assert(word_count >= 1);
    ++live_;
    if (word_count < free_by_size_.size() &&
        !free_by_size_[word_count].empty()) {
      auto& frees = free_by_size_[word_count];
      const std::uint32_t offset = frees.back();
      frees.pop_back();
      ++recycled_;
      return offset;
    }
    const auto offset = static_cast<std::uint32_t>(slab_.size());
    slab_.resize(slab_.size() + word_count);
    return offset;
  }

  /// Returns `packet`'s word block to the free list. Must be called exactly
  /// once per allocated packet (drop or tail injection).
  void release(const Packet& packet) {
    assert(live_ > 0);
    assert(packet.word_offset + packet.word_count <= slab_.size());
    --live_;
    if (packet.word_count >= free_by_size_.size()) {
      free_by_size_.resize(packet.word_count + 1);
    }
    free_by_size_[packet.word_count].push_back(packet.word_offset);
  }

  /// Mutable pointer to `packet`'s words (valid until the next allocate()).
  [[nodiscard]] Word* words(const Packet& packet) noexcept {
    assert(packet.word_offset + packet.word_count <= slab_.size());
    return slab_.data() + packet.word_offset;
  }

  [[nodiscard]] PacketView view(const Packet& packet) const noexcept {
    assert(packet.word_offset + packet.word_count <= slab_.size());
    return PacketView{slab_.data() + packet.word_offset, packet.word_count};
  }

  /// The header word (destination address). Debug-asserted, unchecked in
  /// release: this replaces the old bounds-checked Packet::header().
  [[nodiscard]] Word header(const Packet& packet) const noexcept {
    assert(packet.word_count >= 1 &&
           packet.word_offset + packet.word_count <= slab_.size());
    return slab_[packet.word_offset];
  }

  /// Word `index` of `packet` (0 = header). Debug-asserted, unchecked in
  /// release — the per-cycle streaming read.
  [[nodiscard]] Word word(const Packet& packet,
                          std::uint32_t index) const noexcept {
    assert(index < packet.word_count &&
           packet.word_offset + packet.word_count <= slab_.size());
    return slab_[packet.word_offset + index];
  }

  // --- introspection (tests, stats) ----------------------------------------
  /// Packets currently allocated and not yet released.
  [[nodiscard]] std::size_t live_packets() const noexcept { return live_; }
  /// Current slab extent in words (high-water mark of concurrent traffic).
  [[nodiscard]] std::size_t slab_words() const noexcept {
    return slab_.size();
  }
  /// Total allocate() calls since construction.
  [[nodiscard]] std::uint64_t allocations() const noexcept {
    return allocations_counter();
  }
  /// Subset of allocations served by recycling a retired block.
  [[nodiscard]] std::uint64_t recycled() const noexcept { return recycled_; }

 private:
  [[nodiscard]] std::uint64_t allocations_counter() const noexcept {
    // live_ + total released = allocations; released = sum of free lists +
    // recycled churn. Tracking recycled_ alone keeps the hot path at two
    // counter bumps; reconstruct the total lazily here.
    std::uint64_t freed = 0;
    for (const auto& frees : free_by_size_) freed += frees.size();
    return live_ + freed + recycled_;
  }

  std::vector<Word> slab_;
  /// free_by_size_[n] holds slab offsets of retired n-word blocks.
  std::vector<std::vector<std::uint32_t>> free_by_size_;
  std::size_t live_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace sfab
