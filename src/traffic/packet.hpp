// Packets as the fabrics see them.
//
// The paper's platform feeds TCP/IP traffic whose headers were already
// translated to egress-port addresses by the ingress process unit, with
// random binary payload (only switching activity matters inside the
// fabric). A packet here is therefore a destination port plus a train of
// bus words: words[0] is the header word carrying the destination address,
// the rest are payload. The words live in a PacketArena (traffic/arena.hpp)
// and Packet itself is a POD handle, so queues move packets with integer
// copies.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "traffic/arena.hpp"

namespace sfab {

/// What fills the payload words.
enum class PayloadKind {
  kRandom,       ///< independent random bits (the paper's workload)
  kAlternating,  ///< 0xFFFFFFFF / 0x00000000 alternating: every bit flips
                 ///< every word — the worst case the closed forms assume
  kZero,         ///< all zeros: minimum switching
};

[[nodiscard]] std::string_view to_string(PayloadKind kind) noexcept;

/// Inverse of to_string(PayloadKind); throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] PayloadKind parse_payload_kind(std::string_view name);

/// Fills a packet's word block in place: words[0] = header (destination),
/// the rest payload of the given kind. Shared by PacketFactory and the
/// packet engine (sim/lane_sim_engine.cpp) so both draw payload bits in
/// the identical order. Inline: this runs once per generated packet.
inline void fill_packet_words(Word* words, std::uint32_t total_words,
                              PortId dest, PayloadKind kind,
                              Rng& rng) noexcept {
  words[0] = static_cast<Word>(dest);  // header
  switch (kind) {
    case PayloadKind::kRandom:
      for (std::uint32_t w = 1; w < total_words; ++w) {
        words[w] = rng.next_word();
      }
      break;
    case PayloadKind::kAlternating:
      for (std::uint32_t w = 1; w < total_words; ++w) {
        words[w] = (w % 2 != 0) ? 0xFFFFFFFFu : 0x00000000u;
      }
      break;
    case PayloadKind::kZero:
      for (std::uint32_t w = 1; w < total_words; ++w) words[w] = 0u;
      break;
  }
}

/// Builds packets of a fixed total length (header + payload_words payload),
/// filling their words directly into a caller-provided arena slab.
class PacketFactory {
 public:
  /// `total_words` includes the header word; must be >= 1.
  PacketFactory(unsigned total_words, PayloadKind kind, std::uint64_t seed);

  [[nodiscard]] Packet make(PacketArena& arena, PortId source, PortId dest,
                            Cycle now) {
    Packet p;
    p.id = next_id_++;
    p.source = source;
    p.dest = dest;
    p.created = now;
    p.word_count = total_words_;
    p.word_offset = arena.allocate(total_words_);
    fill_packet_words(arena.words(p), total_words_, dest, kind_, rng_);
    return p;
  }

  [[nodiscard]] unsigned total_words() const noexcept { return total_words_; }
  [[nodiscard]] PayloadKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t packets_made() const noexcept { return next_id_; }

 private:
  unsigned total_words_;
  PayloadKind kind_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
};

}  // namespace sfab
