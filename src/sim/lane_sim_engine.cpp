// The packet engine, compiled once under the library's ISA baseline (see
// CMakeLists.txt; on x86-64 the wire-flip popcounts are POPCNT
// instructions). Everything here lives in an anonymous namespace except
// detail::simulate, the entry point run_simulation calls.
//
// Execution model: one call runs one SimConfig under its own seed. run<>
// builds the engine state for that run and steps it through the cycle
// range — per cycle, the arrivals, then the engine's step.
//
// Bit-exactness contract (versus run_reference_simulation): a run performs
// the same random draws in the same order and the same floating-point adds
// in the same per-accumulator order as run_reference_simulation(config).
//
// Coverage: every (architecture, scheme) cell of the sweep grid —
// crossbar and fully-connected through the fused single-hop engine,
// Batcher-Banyan, banyan and mesh through the staged multi-hop engine,
// each behind either a VOQ/iSLIP or a FIFO/HOL ingress front. Any config
// rejected by lane_sim_supported() runs on the reference (see
// lane_sim_fallback_reason()).
//
// Deferred energy ledger (the fused engines): the per-word hot loop does
// not perform the serial FP chain
//     wire_j += row_lut[row_flips] + col_lut[col_flips]
// Instead each measured word records one uint32 *event index* (a flip-class
// key) into an event buffer; at flush boundaries (buffer full, end of the
// run) the buffer is replayed serially:
//     switch_j += switch_word_j;  wire_j += event_lut[index]
// in the exact delivery order. Replay preserves each accumulator's operand
// sequence — the scalar chain's adds, in the scalar chain's order — so the
// totals are bit-identical; only the interleaving *between* independent
// accumulators changes, which no accumulator observes. The crossbar's
// two-term LUT sum collapses into a precomputed pair LUT whose entries are
// built with the identical expression (row_lut[rf] + col_lut[cf]), hence
// identical doubles. Nothing is recorded during warmup (those adds are
// zeroed at the boundary anyway); polarity memories still update so the
// flip sequence carries across the boundary exactly like the scalar run.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "fabric/bitonic.hpp"
#include "fabric/mesh.hpp"
#include "power/buffer_energy.hpp"
#include "power/wire_energy.hpp"
#include "sim/lane_sim_kernels.hpp"
#include "thompson/fabric_embeddings.hpp"

namespace sfab::detail {
namespace {

constexpr std::uint32_t kNullSlot = 0xFFFFFFFFu;

/// Per-ingress streaming cursor, packed so the word hot path touches one
/// 16-byte record instead of four scattered arrays. `idx` is the current
/// word's flat index into the slot-pool payload array, `left` counts words
/// still to send (including the current one).
struct StrCursor {
  std::uint32_t idx = 0;
  std::uint32_t left = 0;
  std::uint32_t dest = 0;
  std::uint32_t slot = 0;
};

// The staged fabrics (Batcher-Banyan, banyan, mesh) each define a
// kStageFlitBytes Flit carrying only what their tick reads — the mirror of
// the scalar Flit. `seq + 1 == packet_words` derives the tail flag and
// `inj` carries the grant cycle, so tail delivery computes latency without
// the scalar collector's inflight map. lane_sim_fallback_reason bounds the
// cycle horizon so the 32-bit injection stamps and packet ids cannot wrap.

/// The scalar PacketFactory::make ran (and advanced its generator) before
/// the ingress dropped the packet — consume the same payload draws.
inline void consume_payload_draws(unsigned pw, PayloadKind payload,
                                  Rng& frng) {
  if (payload == PayloadKind::kRandom) {
    for (unsigned w = 1; w < pw; ++w) (void)frng.next_word();
  }
}

/// Traffic state shared by every engine: destination pattern, the
/// Bernoulli/bursty arrival process and the two generator streams. Draw
/// order matches the scalar TrafficGenerator exactly.
struct Traffic {
  unsigned n_ = 0;
  TrafficPatternKind pattern_ = TrafficPatternKind::kUniform;
  PortId hotspot_port_ = 0;
  double hotspot_fraction_ = 0.0;
  // Bernoulli packet rate per port per cycle; negative = bursty arrivals.
  double rate_ = -1.0;
  std::uint64_t threshold_ = 0;
  double on_rate_ = 0.0;
  double p_on_off_ = 0.0;
  double p_off_on_ = 0.0;
  std::vector<char> bursty_on_;  // [port]
  std::vector<PortId> perm_;     // bit-reversal table
  Rng traffic_rng_;              // Rng{seed}
  Rng factory_rng_;              // Rng{seed ^ 0xFACADE}

  void init(const SimConfig& c) {
    n_ = c.ports;
    pattern_ = c.pattern;
    hotspot_port_ = c.hotspot_port;
    hotspot_fraction_ = c.hotspot_fraction;
    // Every pattern but kBursty arrives as BernoulliArrival does (see
    // TrafficGenerator's factories); rate_ < 0 selects BurstyArrival.
    if (c.pattern == TrafficPatternKind::kBursty) {
      const double packet_rate = c.offered_load / c.packet_words;
      const double duty = 0.5;
      p_on_off_ = 1.0 / c.mean_burst_cycles;
      on_rate_ = std::min(1.0, packet_rate / duty);
      p_off_on_ = p_on_off_ * duty / (1.0 - duty);
      bursty_on_.assign(n_, 0);
    } else {
      rate_ = c.offered_load / c.packet_words;
      threshold_ = Rng::bernoulli_threshold(rate_);
    }
    if (c.pattern == TrafficPatternKind::kBitReversal) {
      const unsigned bits = log2_exact(n_);
      perm_.resize(n_);
      for (PortId src = 0; src < n_; ++src) {
        PortId rev = 0;
        for (unsigned b = 0; b < bits; ++b) {
          rev |= bit_of(src, b) << (bits - 1 - b);
        }
        perm_[src] = rev;
      }
    }
    traffic_rng_ = Rng{c.seed};
    factory_rng_ = Rng{c.seed ^ 0xFACADEull};
  }

  [[nodiscard]] PortId pick_dest(PortId source, Rng& rng) const {
    switch (pattern_) {
      case TrafficPatternKind::kBitReversal:
        return perm_[source];
      case TrafficPatternKind::kHotspot:
        if (source != hotspot_port_ &&
            rng.next_bernoulli(hotspot_fraction_)) {
          return hotspot_port_;
        }
        break;
      case TrafficPatternKind::kUniform:
      case TrafficPatternKind::kBursty:
        break;
    }
    // UniformPattern::pick: uniform over the other ports.
    const auto draw = static_cast<PortId>(rng.next_below(n_ - 1));
    return draw >= source ? draw + 1 : draw;
  }

  /// One cycle of arrivals, ports ascending: each port's arrival draw
  /// comes first, then that port's destination draws, as in the scalar
  /// TrafficGenerator. `enq(p, dest, frng)` enqueues with the factory
  /// stream. The streams live in locals for the cycle.
  template <class Enq>
  void arrivals(Enq&& enq) {
    Rng trng = traffic_rng_;
    Rng frng = factory_rng_;
    if (rate_ >= 1.0) {
      // Saturating rate: every port arrives, no arrival draw
      // (Rng::next_bernoulli draws nothing for p >= 1).
      for (PortId p = 0; p < n_; ++p) {
        const PortId dest = pick_dest(p, trng);
        enq(p, dest, frng);
      }
    } else if (rate_ == 0.0) {
      // No arrivals, no draws (next_bernoulli draws nothing for p <= 0).
    } else if (rate_ > 0.0) {
      // Sub-unity Bernoulli arrivals on the precomputed integer threshold,
      // draw-for-draw next_bernoulli(rate_).
      for (PortId p = 0; p < n_; ++p) {
        if (!trng.next_bernoulli_threshold(threshold_)) continue;
        const PortId dest = pick_dest(p, trng);
        enq(p, dest, frng);
      }
    } else {
      // BurstyArrival::arrives: Markov state flip, then an in-state draw.
      char* const on = bursty_on_.data();
      for (PortId p = 0; p < n_; ++p) {
        if (on[p]) {
          if (trng.next_bernoulli(p_on_off_)) on[p] = 0;
        } else {
          if (trng.next_bernoulli(p_off_on_)) on[p] = 1;
        }
        if (on[p] == 0 || !trng.next_bernoulli(on_rate_)) continue;
        const PortId dest = pick_dest(p, trng);
        enq(p, dest, frng);
      }
    }
    traffic_rng_ = trng;
    factory_rng_ = frng;
  }
};

/// VOQ/iSLIP ingress front: per-ingress banks of virtual output queues
/// over a shared slot pool, matched by the mask-word iSLIP from the scalar
/// VoqRouter. One mask word holds each cross-port set (occupancy,
/// requests, free ports, streaming). Transliterated from the scalar
/// VoqBank/IslipArbiter pair — same draw order, same pointer updates.
struct VoqFront {
  unsigned n_ = 0;
  unsigned pw_ = 0;
  std::uint32_t cap_ = 0;  ///< shared packets per VOQ bank
  std::uint32_t spb_ = 0;  ///< slots per bank = cap_ + 1
  unsigned iterations_ = 0;
  PayloadKind payload_ = PayloadKind::kRandom;
  bool with_ids_ = false;

  // VOQ banks: bank b = ingress owns spb_ packet slots; VOQs are intrusive
  // lists over the slot pool, occupancy mirrored in mask words.
  std::vector<std::uint32_t> slot_next_;  // [bank * spb_ + slot]
  std::vector<std::uint32_t> free_head_;  // [bank]
  std::vector<Word> words_;               // [(bank * spb_ + slot) * pw_]
  std::vector<std::uint64_t> ids_;        // [bank * spb_ + slot], with_ids_
  std::uint64_t next_id_ = 0;
  std::vector<std::uint32_t> head_;       // [bank * N + egress]
  std::vector<std::uint32_t> tail_;       // [bank * N + egress]
  std::vector<std::uint64_t> occ_;        // [bank], bit e = VOQ e nonempty
  std::vector<std::uint64_t> req_t_;      // [egress], bit i: transpose
  std::vector<std::uint32_t> total_;      // [bank], queued packets

  std::vector<StrCursor> str_;            // [ingress]
  std::vector<Cycle> str_start_;          // [ingress]
  std::uint64_t streaming_ = 0;           // bit i
  std::uint64_t ingress_free_ = 0;
  std::uint64_t egress_free_ = 0;

  // iSLIP pointers + grant scratch.
  std::vector<PortId> grant_ptr_;   // [egress]
  std::vector<PortId> accept_ptr_;  // [ingress]
  std::uint64_t grants_of_[64] = {};

  std::uint64_t drops_ = 0;
  std::uint64_t drops_before_ = 0;

  void init(const SimConfig& c, bool with_ids) {
    n_ = c.ports;
    pw_ = c.packet_words;
    cap_ = static_cast<std::uint32_t>(c.ingress_queue_packets);
    spb_ = cap_ + 1;
    iterations_ = c.islip_iterations == 0 ? c.ports : c.islip_iterations;
    payload_ = c.payload;
    with_ids_ = with_ids;

    slot_next_.assign(std::size_t{n_} * spb_, kNullSlot);
    for (std::size_t b = 0; b < n_; ++b) {
      for (std::uint32_t s = 0; s + 1 < spb_; ++s) {
        slot_next_[b * spb_ + s] = s + 1;
      }
    }
    free_head_.assign(n_, 0);
    // One padding word: a completed packet's parked cursor points one past
    // its last word.
    words_.assign(std::size_t{n_} * spb_ * pw_ + 1, 0);
    if (with_ids_) ids_.assign(std::size_t{n_} * spb_, 0);
    head_.assign(std::size_t{n_} * n_, kNullSlot);
    tail_.assign(std::size_t{n_} * n_, kNullSlot);
    occ_.assign(n_, 0);
    req_t_.assign(n_, 0);
    total_.assign(n_, 0);

    str_.assign(n_, StrCursor{});
    str_start_.assign(n_, 0);
    const std::uint64_t full_mask = n_ == 64 ? ~std::uint64_t{0} : low_mask(n_);
    ingress_free_ = full_mask;
    egress_free_ = full_mask;
    grant_ptr_.assign(n_, 0);
    accept_ptr_.assign(n_, 0);
  }

  void enqueue(PortId ingress, PortId dest, Cycle /*cycle*/, Rng& frng) {
    const std::size_t b = ingress;
    std::uint64_t id = 0;
    if (with_ids_) id = next_id_++;  // factory id advances even on drop
    if (total_[b] >= cap_) {
      ++drops_;
      consume_payload_draws(pw_, payload_, frng);
      return;
    }
    const std::size_t sbase = b * spb_;
    const std::uint32_t s = free_head_[b];
    free_head_[b] = slot_next_[sbase + s];

    fill_packet_words(words_.data() + (sbase + s) * pw_, pw_, dest, payload_,
                      frng);
    if (with_ids_) ids_[sbase + s] = id;

    const std::size_t q = b * n_ + dest;
    slot_next_[sbase + s] = kNullSlot;
    if (tail_[q] == kNullSlot) {
      head_[q] = s;
    } else {
      slot_next_[sbase + tail_[q]] = s;
    }
    tail_[q] = s;
    occ_[b] |= std::uint64_t{1} << dest;
    req_t_[dest] |= std::uint64_t{1} << ingress;
    ++total_[b];
  }

  /// IslipArbiter::match_banks on mask words: the grant pointer walk is a
  /// first-set-bit in cyclic order over (requesters & available
  /// ingresses), the accept walk the same over the egresses that granted
  /// this ingress.
  void schedule(Cycle cycle) {
    std::uint64_t matched_i = 0;
    std::uint64_t matched_e = 0;
    for (unsigned iter = 0; iter < iterations_; ++iter) {
      const std::uint64_t avail_e = egress_free_ & ~matched_e;
      const std::uint64_t avail_i = ingress_free_ & ~matched_i;
      if (avail_e == 0 || avail_i == 0) break;
      std::uint64_t granted = 0;
      for_each_set_bit(avail_e, 0, [&](unsigned e) {
        const std::uint64_t cand = req_t_[e] & avail_i;
        if (cand == 0) return;
        const unsigned g = first_set_cyclic(cand, grant_ptr_[e], n_);
        grants_of_[g] |= std::uint64_t{1} << e;
        granted |= std::uint64_t{1} << g;
      });
      if (granted == 0) break;  // no grant can be accepted
      for_each_set_bit(granted, 0, [&](unsigned i) {
        const unsigned e =
            first_set_cyclic(grants_of_[i], accept_ptr_[i], n_);
        grants_of_[i] = 0;
        matched_i |= std::uint64_t{1} << i;
        matched_e |= std::uint64_t{1} << e;
        // iSLIP pointer rule: advance one past the partner, first
        // iteration only ((x + 1) % n without the division).
        if (iter == 0) {
          grant_ptr_[e] = i + 1 == n_ ? 0 : i + 1;
          accept_ptr_[i] = e + 1 == n_ ? 0 : e + 1;
        }
        start_streaming(i, e, cycle);
      });
    }
  }

  /// VoqBank::pop + the router's match bookkeeping for one accepted match.
  void start_streaming(unsigned ingress, unsigned egress, Cycle cycle) {
    const std::size_t b = ingress;
    const std::size_t sbase = b * spb_;
    const std::size_t q = b * n_ + egress;
    const std::uint32_t s = head_[q];
    head_[q] = slot_next_[sbase + s];
    if (head_[q] == kNullSlot) {
      tail_[q] = kNullSlot;
      occ_[b] &= ~(std::uint64_t{1} << egress);
      req_t_[egress] &= ~(std::uint64_t{1} << ingress);
    }
    --total_[b];

    str_[b] = StrCursor{static_cast<std::uint32_t>((sbase + s) * pw_), pw_,
                        egress, s};
    str_start_[b] = cycle;  // note_head_injected: latency measures from here
    streaming_ |= std::uint64_t{1} << ingress;
    ingress_free_ &= ~(std::uint64_t{1} << ingress);
    egress_free_ &= ~(std::uint64_t{1} << egress);
  }

  /// Tail-word retirement: free the slot and reopen the ingress; the
  /// egress reopens here only for fixed-latency fabrics (otherwise it
  /// unlocks at tail *delivery* via unlock_mask).
  void on_tail(unsigned p, unsigned e, std::uint32_t slot, Cycle /*cycle*/,
               bool fixed_latency) {
    const std::size_t b = p;
    if (fixed_latency) egress_free_ |= std::uint64_t{1} << e;
    slot_next_[b * spb_ + slot] = free_head_[b];
    free_head_[b] = slot;
    ingress_free_ |= std::uint64_t{1} << p;
    streaming_ &= ~(std::uint64_t{1} << p);
  }

  void unlock_mask(std::uint64_t egresses) { egress_free_ |= egresses; }

  [[nodiscard]] std::uint64_t id_of(PortId p, std::uint32_t slot) const {
    return with_ids_ ? ids_[std::size_t{p} * spb_ + slot] : 0;
  }

  void snapshot_drops() { drops_before_ = drops_; }
};

/// FIFO/HOL ingress front: one ring of packets per ingress with
/// head-of-line arbitration per egress — the scalar Router + IngressUnit +
/// RoundRobinArbiter, transliterated. The arbiter's winner per egress is
/// the strict minimum of (head_since, round-robin distance); distances are
/// injective per egress, so the fused per-egress compute-and-apply walk
/// (egress-ascending, as the scalar grant emission) picks the identical
/// winners. The granted packet stays at its ring front until tail
/// injection, exactly like IngressUnit (ring capacity == queue_packets,
/// no +1 slot).
struct FifoFront {
  unsigned n_ = 0;
  unsigned pw_ = 0;
  std::uint32_t cap_ = 0;  ///< packets per ingress ring
  PayloadKind payload_ = PayloadKind::kRandom;
  bool with_ids_ = false;

  std::vector<std::uint32_t> head_;   // [bank]
  std::vector<std::uint32_t> size_;   // [bank]
  std::vector<Word> words_;           // [(bank * cap_ + pos) * pw_]
  std::vector<std::uint64_t> ids_;    // [bank * cap_ + pos], with_ids_
  std::uint64_t next_id_ = 0;
  std::vector<Cycle> head_since_;     // [bank]: IngressUnit::head_since

  std::vector<std::uint64_t> cont_;  // [egress], bit i contends
  std::uint64_t cont_any_ = 0;       // bit e = list nonempty
  std::uint64_t locked_ = 0;         // bit e = egress locked
  std::vector<PortId> rr_next_;      // [egress]

  std::vector<StrCursor> str_;    // [bank]
  std::vector<Cycle> str_start_;  // [bank]
  std::uint64_t streaming_ = 0;   // bit i

  std::uint64_t drops_ = 0;
  std::uint64_t drops_before_ = 0;

  void init(const SimConfig& c, bool with_ids) {
    n_ = c.ports;
    pw_ = c.packet_words;
    cap_ = static_cast<std::uint32_t>(c.ingress_queue_packets);
    payload_ = c.payload;
    with_ids_ = with_ids;

    head_.assign(n_, 0);
    size_.assign(n_, 0);
    words_.assign(std::size_t{n_} * cap_ * pw_ + 1, 0);
    if (with_ids_) ids_.assign(std::size_t{n_} * cap_, 0);
    head_since_.assign(n_, 0);
    cont_.assign(n_, 0);
    rr_next_.assign(n_, 0);
    str_.assign(n_, StrCursor{});
    str_start_.assign(n_, 0);
  }

  void enqueue(PortId ingress, PortId dest, Cycle cycle, Rng& frng) {
    const std::size_t b = ingress;
    std::uint64_t id = 0;
    if (with_ids_) id = next_id_++;  // factory id advances even on drop
    if (size_[b] == cap_) {
      ++drops_;
      consume_payload_draws(pw_, payload_, frng);
      return;
    }
    std::uint32_t pos = head_[b] + size_[b];
    if (pos >= cap_) pos -= cap_;
    fill_packet_words(words_.data() + (b * cap_ + pos) * pw_, pw_, dest,
                      payload_, frng);
    if (with_ids_) ids_[b * cap_ + pos] = id;
    // IngressUnit::enqueue: head_since stamps only when the packet becomes
    // the head of line (empty queue, not streaming). A head of line
    // contends for its destination; the engine keeps that set as per-egress
    // masks where the reference Router rescans its ingresses every cycle.
    const bool becomes_hol =
        size_[b] == 0 && ((streaming_ >> ingress) & 1) == 0;
    ++size_[b];
    if (becomes_hol) {
      head_since_[b] = cycle;
      cont_[dest] |= std::uint64_t{1} << ingress;
      cont_any_ |= std::uint64_t{1} << dest;
    }
  }

  /// Arbiter::arbitrate fused with the router's grant
  /// application. Requests exist for every (unlocked egress, contender)
  /// pair; the winner per egress is the strict min of (waiting-since,
  /// round-robin distance) — unique, because distances are injective per
  /// egress — so computing and applying per egress in ascending order
  /// equals the scalar's compute-all-then-apply (grants were emitted
  /// egress-ascending there too, and no two egresses share state).
  void schedule(Cycle cycle) {
    const std::uint64_t avail = cont_any_ & ~locked_;
    if (avail == 0) return;
    for_each_set_bit(avail, 0, [&](unsigned e) {
      const std::uint64_t cand = cont_[e];  // nonempty by invariant
      const PortId rrn = rr_next_[e];
      bool valid = false;
      unsigned best = 0;
      Cycle best_since = 0;
      unsigned best_dist = 0;
      for_each_set_bit(cand, 0, [&](unsigned i) {
        unsigned d = i + n_ - rrn;
        if (d >= n_) d -= n_;
        const Cycle since = head_since_[i];
        if (!valid || since < best_since ||
            (since == best_since && d < best_dist)) {
          valid = true;
          best = i;
          best_since = since;
          best_dist = d;
        }
      });
      // Apply the grant: pointer one past the winner, egress locked,
      // IngressUnit::grant (stream from the ring front) and
      // note_head_injected.
      rr_next_[e] = best + 1 == n_ ? 0 : static_cast<PortId>(best + 1);
      locked_ |= std::uint64_t{1} << e;
      const std::size_t b = best;
      const std::uint32_t pos = head_[b];
      str_[b] = StrCursor{
          static_cast<std::uint32_t>((b * cap_ + pos) * pw_), pw_,
          static_cast<std::uint32_t>(e), pos};
      str_start_[b] = cycle;
      streaming_ |= std::uint64_t{1} << best;
      cont_[e] &= ~(std::uint64_t{1} << best);
      if (cont_[e] == 0) cont_any_ &= ~(std::uint64_t{1} << e);
    });
  }

  /// Tail-word retirement (IngressUnit::advance tail branch +
  /// the router's tail handling): pop the ring, restamp head_since, and
  /// promote the next head of line to contender.
  void on_tail(unsigned p, unsigned e, std::uint32_t /*slot*/, Cycle cycle,
               bool fixed_latency) {
    const std::size_t b = p;
    std::uint32_t h = head_[b] + 1;
    if (h == cap_) h = 0;
    head_[b] = h;
    --size_[b];
    streaming_ &= ~(std::uint64_t{1} << p);
    head_since_[b] = cycle;
    if (fixed_latency) locked_ &= ~(std::uint64_t{1} << e);
    if (size_[b] != 0) {
      const auto hdest =
          static_cast<PortId>(words_[(b * cap_ + h) * pw_]);
      cont_[hdest] |= std::uint64_t{1} << p;
      cont_any_ |= std::uint64_t{1} << hdest;
    }
  }

  void unlock_mask(std::uint64_t egresses) { locked_ &= ~egresses; }

  [[nodiscard]] std::uint64_t id_of(PortId p, std::uint32_t slot) const {
    return with_ids_ ? ids_[std::size_t{p} * cap_ + slot] : 0;
  }

  void snapshot_drops() { drops_before_ = drops_; }
};

/// Deferred-ledger event buffer depth (uint32 keys). Sized so a flush
/// replay stays L1/L2-resident; the hot loop flushes whenever fewer than
/// one full port set of headroom remains.
constexpr unsigned kEventCap = 4096;

/// Measurement accumulators shared by every engine, mirroring the scalar
/// EnergyLedger buckets and EgressCollector / fabric counters. FP members
/// only ever receive the scalar run's adds in the scalar run's
/// per-accumulator order, so the derived SimResult fields match bit for
/// bit.
struct Accum {
  double switch_j = 0.0, buffer_j = 0.0, wire_j = 0.0, latency_sum = 0.0;
  std::uint64_t words = 0, packets = 0, latency_cnt = 0;
  // Cumulative-since-construction fabric counters + their measure-boundary
  // snapshots (the scalar reports deltas across the measurement window).
  std::uint64_t buffered = 0, sram = 0, stalls = 0;
  std::uint64_t buffered_before = 0, sram_before = 0, stalls_before = 0;

  /// The warmup->measure boundary: reset_energy + egress reset_counters +
  /// counter snapshots.
  void reset_measurement() {
    switch_j = 0.0;
    buffer_j = 0.0;
    wire_j = 0.0;
    latency_sum = 0.0;
    words = 0;
    packets = 0;
    latency_cnt = 0;
    buffered_before = buffered;
    sram_before = sram;
    stalls_before = stalls;
  }
};

/// SimResult derivation — the measure() epilogue, field for field. The
/// scalar ledger total folds kSwitch, kBuffer, kWire in kind order starting
/// from 0.0; switch_j is a sum of non-negative adds (never -0.0), so
/// 0.0 + switch_j == switch_j bitwise and the fold reduces to
/// (switch + buffer) + wire.
[[nodiscard]] inline SimResult make_result(const SimConfig& c,
                                           const Accum& a,
                                           std::uint64_t drops_delta) {
  SimResult r;
  r.arch = c.arch;
  r.ports = c.ports;
  r.offered_load = c.offered_load;
  r.measured_cycles = c.measure_cycles;

  r.delivered_words = a.words;
  r.delivered_packets = a.packets;
  r.egress_throughput = static_cast<double>(a.words) /
                        (static_cast<double>(c.measure_cycles) * c.ports);
  r.input_queue_drops = drops_delta;
  r.mean_packet_latency_cycles =
      a.latency_cnt == 0
          ? 0.0
          : a.latency_sum / static_cast<double>(a.latency_cnt);

  const double duration_s =
      static_cast<double>(c.measure_cycles) * c.tech.cycle_time_s();
  const double total_j = (a.switch_j + a.buffer_j) + a.wire_j;
  r.power_w = total_j / duration_s;
  r.switch_power_w = a.switch_j / duration_s;
  r.buffer_power_w = a.buffer_j / duration_s;
  r.wire_power_w = a.wire_j / duration_s;
  const double delivered_bits =
      static_cast<double>(r.delivered_words) * c.tech.bus_width;
  r.energy_per_bit_j = delivered_bits > 0.0 ? total_j / delivered_bits : 0.0;

  r.words_buffered = a.buffered - a.buffered_before;
  r.sram_buffered_words = a.sram - a.sram_before;
  r.stall_cycles = a.stalls - a.stalls_before;
  return r;
}

/// Fused single-hop engine: crossbar and fully-connected, behind either
/// ingress front. Every injected word is delivered the same cycle (the
/// scalar fabric's tick empties every slot injected before it), so the
/// whole per-word energy path is two LUT-able adds — the shape the
/// deferred ledger removes from the hot loop. A measured word records one
/// uint32 flip-class key; flush() replays the keys serially in delivery
/// order (see the file header for the bit-exactness argument).
template <Architecture kArch, class FrontT>
struct FusedEngine {
  static constexpr bool kXbar = (kArch == Architecture::kCrossbar);

  unsigned n_ = 0;
  unsigned pw_ = 0;
  std::uint32_t bw1_ = 0;  ///< bus_width + 1 (pair-LUT row stride)
  /// Eq. 3's per-word switch constant: N * E_S (crossbar crosspoint row)
  /// or the N-input mux (fully-connected) — identical expression to the
  /// scalar fabric constructors.
  double switch_word_j_ = 0.0;
  /// Crossbar: pair LUT [rf * bw1_ + cf] = row_lut[rf] + col_lut[cf],
  /// built with the identical scalar expressions, hence identical doubles.
  /// Fully-connected: [flips] = flip_energy_j(flips, path_grids()).
  std::vector<double> lut_;
  std::vector<Word> row_last_;  // [ingress] wire polarity
  std::vector<Word> col_last_;  // [egress], crossbar only
  std::vector<std::uint32_t> ebuf_;  // [kEventCap] event keys
  std::uint32_t ecnt_ = 0;
  FrontT front_;
  Accum acc_;

  void init(const SimConfig& c) {
    n_ = c.ports;
    pw_ = c.packet_words;
    bw1_ = c.tech.bus_width + 1;
    const WireEnergyModel wires{c.tech};
    if constexpr (kXbar) {
      const thompson::CrossbarEmbedding embedding{c.ports};
      switch_word_j_ = c.ports * c.switches.crosspoint.energy_per_bit(1u) *
                       c.tech.bus_width;
      std::vector<double> row_lut, col_lut;
      row_lut.reserve(bw1_);
      col_lut.reserve(bw1_);
      for (unsigned f = 0; f <= c.tech.bus_width; ++f) {
        row_lut.push_back(wires.flip_energy_j(static_cast<int>(f),
                                              embedding.row_wire_grids()));
        col_lut.push_back(wires.flip_energy_j(static_cast<int>(f),
                                              embedding.column_wire_grids()));
      }
      lut_.resize(std::size_t{bw1_} * bw1_);
      for (unsigned rf = 0; rf < bw1_; ++rf) {
        for (unsigned cf = 0; cf < bw1_; ++cf) {
          lut_[std::size_t{rf} * bw1_ + cf] = row_lut[rf] + col_lut[cf];
        }
      }
      col_last_.assign(n_, 0);
    } else {
      const thompson::FullyConnectedEmbedding embedding{c.ports};
      switch_word_j_ =
          c.switches.mux_energy_per_bit(c.ports) * c.tech.bus_width;
      lut_.reserve(bw1_);
      for (unsigned f = 0; f <= c.tech.bus_width; ++f) {
        lut_.push_back(wires.flip_energy_j(static_cast<int>(f),
                                           embedding.path_grids()));
      }
    }
    row_last_.assign(n_, 0);
    ebuf_.assign(kEventCap, 0);
    front_.init(c, /*with_ids=*/false);
  }

  void enqueue(PortId ingress, PortId dest, Cycle cycle, Rng& frng) {
    front_.enqueue(ingress, dest, cycle, frng);
  }

  /// Replay the deferred events against the ledger accumulators, in
  /// delivery order: the scalar per-word (switch const, wire LUT) add
  /// pair, per accumulator.
  void flush() {
    const std::uint32_t cnt = ecnt_;
    if (cnt == 0) return;
    const std::uint32_t* const ev = ebuf_.data();
    double sj = acc_.switch_j;
    double wj = acc_.wire_j;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      sj += switch_word_j_;
      wj += lut_[ev[i]];
    }
    acc_.switch_j = sj;
    acc_.wire_j = wj;
    ecnt_ = 0;
  }

  template <bool kMeasured>
  void step(Cycle cycle) {
    front_.schedule(cycle);
    Word* const rl = row_last_.data();
    // col_last_ is empty for fully-connected; only form the pointer when
    // the plane exists.
    Word* const cl = [&]() -> Word* {
      if constexpr (kXbar) return col_last_.data();
      return nullptr;
    }();
    std::uint32_t* const ev = ebuf_.data();
    std::uint32_t ecnt = ecnt_;
    std::uint64_t wcnt = 0;
    // The scalar inject-then-tick: streaming ports ascending, each word
    // delivered within the same cycle.
    for_each_set_bit(front_.streaming_, 0, [&](unsigned p) {
      StrCursor& cur = front_.str_[p];
      const Word data = front_.words_[cur.idx];
      const unsigned e = cur.dest;
      // Wire polarity always advances (warmup included); the energy add is
      // deferred as one event key when measuring.
      std::uint32_t key;
      if constexpr (kXbar) {
        const auto rf =
            static_cast<std::uint32_t>(toggled_bits(rl[p], data));
        rl[p] = data;
        const auto cf =
            static_cast<std::uint32_t>(toggled_bits(cl[e], data));
        cl[e] = data;
        key = rf * bw1_ + cf;
      } else {
        key = static_cast<std::uint32_t>(toggled_bits(rl[p], data));
        rl[p] = data;
      }
      if constexpr (kMeasured) {
        ev[ecnt++] = key;
        ++wcnt;
      } else {
        (void)key;
      }
      cur.idx += 1;
      const std::uint32_t left = cur.left;
      cur.left = left - 1;
      if (left == 1) {
        // Tail delivered this cycle: packet + latency bookkeeping, then
        // retire the stream (fixed-latency: egress reopens immediately).
        if constexpr (kMeasured) {
          ++acc_.packets;
          acc_.latency_sum +=
              static_cast<double>(cycle - front_.str_start_[p]);
          ++acc_.latency_cnt;
        }
        front_.on_tail(p, e, cur.slot, cycle, /*fixed_latency=*/true);
      }
    });
    if constexpr (kMeasured) {
      ecnt_ = ecnt;
      acc_.words += wcnt;
      if (ecnt + n_ > kEventCap) flush();
    }
  }

  void reset_measurement() {
    acc_.reset_measurement();
    front_.snapshot_drops();
  }

  void finish() { flush(); }

  [[nodiscard]] SimResult result(const SimConfig& c) const {
    return make_result(c, acc_, front_.drops_ - front_.drops_before_);
  }
};

/// Batcher-Banyan staged fabric: the scalar BatcherBanyanFabric's
/// per-stage links become planes with row- and switch-occupancy words
/// (N <= 64 rows fit one uint64 per stage). The tick is a
/// statement-for-statement transliteration of tick_sorter_stage /
/// tick_banyan_stage, walking occupied switches ascending per stage so the
/// per-kind energy adds land in the scalar ledger order. The scalar
/// per-stage banyan_parity_ char toggles once per tick unconditionally, so
/// it equals cycle & 1 and needs no storage.
struct BatcherStages {
  static constexpr bool kFixedLatency = true;  ///< sorter+banyan, no buffers
  static constexpr bool kNeedsIds = true;      ///< same-packet arbitration rule

  struct Stage {
    bool sorter = false;
    unsigned span_log2 = 0;
    unsigned phase = 0;
    double act1 = 0.0;   ///< switch energy, one word moved (mask 0b01)
    double act2 = 0.0;   ///< switch energy, both words moved (mask 0b11)
    double grids = 0.0;  ///< crossing wire length: 4 * 2^span (Eq. 6)
    /// Bit sw: bitonic_ascending(r0(sw), phase). The direction is a pure
    /// function of (stage, switch), so the tick tests a mask bit instead
    /// of recomputing it per occupied switch per cycle.
    std::uint64_t asc = 0;
  };

  /// 16-byte link word: the sorter compares via the dest_ byte plane and
  /// the row is implied by position, so neither is carried. `id` is only
  /// consulted for equality (the same-packet rule), so the front's own
  /// counter matches the scalar factory's ids.
  struct Flit {
    Word data = 0;
    std::uint32_t id = 0;   ///< same-packet rule; exact under the gate
    std::uint32_t inj = 0;  ///< head-injection cycle stamp
    std::uint32_t seq = 0;
  };
  static_assert(sizeof(Flit) == kStageFlitBytes);

  unsigned n_ = 0;
  unsigned n_stages_ = 0;
  WireEnergyModel wires_ = WireEnergyModel{};
  std::vector<Stage> specs_;
  std::vector<Flit> links_;             // [stage * n_ + row]
  std::vector<std::uint64_t> row_occ_;  // [stage]
  std::vector<std::uint64_t> sw_occ_;   // [stage]
  std::vector<Word> wire_last_;         // [stage * n_ + row]
  /// Sorter compare keys, mirrored out of the flits: dest < 64
  /// fits a byte, so a stage's whole key plane is one cache line and the
  /// compare-exchange never touches the flit rows it does not move.
  std::vector<std::uint8_t> dest_;  // [stage * n_ + row]

  void init(const SimConfig& c) {
    n_ = c.ports;
    wires_ = WireEnergyModel{c.tech};
    const unsigned dimension = log2_exact(n_);
    for (const BitonicStage& s : bitonic_schedule(n_)) {
      specs_.push_back(Stage{true, s.span_log2, s.phase, 0.0, 0.0, 0.0});
    }
    // Banyan section MSB-first, as the scalar constructor.
    for (unsigned s = dimension; s-- > 0;) {
      specs_.push_back(Stage{false, s, 0, 0.0, 0.0, 0.0});
    }
    for (Stage& spec : specs_) {
      const auto& lut =
          spec.sorter ? c.switches.sorter2x2 : c.switches.banyan2x2;
      spec.act1 = lut.energy_per_bit(0b01u) * c.tech.bus_width;
      spec.act2 = lut.energy_per_bit(0b11u) * c.tech.bus_width;
      spec.grids = 4.0 * static_cast<double>(1u << spec.span_log2);
      if (spec.sorter) {
        for (unsigned sw = 0; sw < n_ / 2; ++sw) {
          const unsigned low = sw & low_mask(spec.span_log2);
          const unsigned high = (sw >> spec.span_log2)
                                << (spec.span_log2 + 1);
          if (bitonic_ascending(static_cast<PortId>(high | low),
                                spec.phase)) {
            spec.asc |= std::uint64_t{1} << sw;
          }
        }
      }
    }
    n_stages_ = static_cast<unsigned>(specs_.size());
    links_.assign(std::size_t{n_stages_} * n_, Flit{});
    row_occ_.assign(n_stages_, 0);
    sw_occ_.assign(n_stages_, 0);
    wire_last_.assign(std::size_t{n_stages_} * n_, 0);
    dest_.assign(std::size_t{n_stages_} * n_, 0);
  }

  [[nodiscard]] static unsigned switch_of(PortId row, unsigned b) {
    const auto low = static_cast<unsigned>(row & low_mask(b));
    const unsigned high = (row >> (b + 1)) << b;
    return high | low;
  }

  [[nodiscard]] bool can_accept(PortId ingress) const {
    return ((row_occ_[0] >> ingress) & 1) == 0;
  }

  void inject(PortId ingress, PortId dest, Word data, std::uint32_t seq,
              std::uint64_t id, Cycle inj) {
    links_[ingress] = Flit{data, static_cast<std::uint32_t>(id),
                           static_cast<std::uint32_t>(inj), seq};
    dest_[ingress] = static_cast<std::uint8_t>(dest);
    row_occ_[0] |= std::uint64_t{1} << ingress;
    sw_occ_[0] |= std::uint64_t{1} << switch_of(ingress, specs_[0].span_log2);
  }

  /// The tick keeps the stage's and its successor's occupancy words in
  /// locals for the whole stage walk (the walk only ever touches rows of
  /// the current plane pair, and rows of distinct switches are disjoint),
  /// writing them back once per stage. Successor-plane state lives in the
  /// *_next locals; vacate/move_word from the scalar become the in-lambda
  /// bit updates below.
  template <bool kMeasured, class Deliver>
  void tick(Cycle cycle, Accum& acc, Deliver&& deliver) {
    const bool parity = (cycle & 1) != 0;
    // Energy accumulators live in registers for the whole tick (the adds
    // themselves keep the scalar order, so the totals stay bit-identical);
    // through the Accum members every other double store would force a
    // reload.
    double wire_acc = 0.0;
    double switch_acc = 0.0;
    if constexpr (kMeasured) {
      wire_acc = acc.wire_j;
      switch_acc = acc.switch_j;
    }
    // Downstream stages first, as the scalar tick.
    for (unsigned stage = n_stages_; stage-- > 0;) {
      std::uint64_t sw_here = sw_occ_[stage];
      if (sw_here == 0) continue;  // scalar walks no occupied switch
      const Stage& spec = specs_[stage];
      const unsigned b = spec.span_log2;
      const bool last_stage = (stage == n_stages_ - 1);
      Flit* const links = links_.data() + std::size_t{stage} * n_;
      Word* const wl = wire_last_.data() + std::size_t{stage} * n_;
      std::uint8_t* const dst = dest_.data() + std::size_t{stage} * n_;
      std::uint64_t row_here = row_occ_[stage];
      std::uint64_t row_next = last_stage ? 0 : row_occ_[stage + 1];
      std::uint64_t sw_next = last_stage ? 0 : sw_occ_[stage + 1];
      const unsigned b_next = last_stage ? 0 : specs_[stage + 1].span_log2;

      // move_word: charge the crossing wire (polarity always advances;
      // the energy add is measurement-gated), place the word at stage + 1.
      const auto move_next = [&](const Flit& flit, std::uint8_t dest,
                                 PortId out_row) {
        const int flips = toggled_bits(wl[out_row], flit.data);
        wl[out_row] = flit.data;
        if constexpr (kMeasured) {
          wire_acc += wires_.flip_energy_j(flips, spec.grids);
        } else {
          (void)flips;
        }
        links[n_ + out_row] = flit;  // stage + 1 plane is contiguous
        dst[n_ + out_row] = dest;
        row_next |= std::uint64_t{1} << out_row;
        sw_next |= std::uint64_t{1} << switch_of(out_row, b_next);
      };
      const auto vacate_here = [&](PortId row) {
        row_here &= ~(std::uint64_t{1} << row);
        const PortId sibling = row ^ (PortId{1} << b);
        if (((row_here >> sibling) & 1) == 0) {
          sw_here &= ~(std::uint64_t{1} << switch_of(row, b));
        }
      };
      const auto charge_activity = [&](unsigned moved) {
        if constexpr (kMeasured) {
          if (moved != 0) {
            switch_acc += moved >= 2 ? spec.act2 : spec.act1;
          }
        } else {
          (void)moved;
        }
      };

      if (spec.sorter) {
        // Word-parallel stall precheck. Switch outputs never alias across
        // switches, so movability per switch depends only on the pre-walk
        // successor occupancy: a full pair holds on any occupied output
        // (compare-exchange uses both rows); a lone word always sorts
        // toward r0 when ascending (the idle key, +infinity, loses every
        // comparison), so it stalls only on that one row. Every visited
        // switch therefore moves; stalled switches are exactly the
        // scalar's no-op iterations and charge nothing.
        const unsigned span = 1u << b;
        const std::uint64_t occ0 = compress_even_blocks(row_here, b);
        const std::uint64_t occ1 = compress_even_blocks(row_here >> span, b);
        const std::uint64_t nxt0 = compress_even_blocks(row_next, b);
        const std::uint64_t nxt1 = compress_even_blocks(row_next >> span, b);
        const std::uint64_t both = occ0 & occ1;
        const std::uint64_t lone = occ0 ^ occ1;
        const std::uint64_t movable =
            (both & ~(nxt0 | nxt1)) |
            (lone & ~((spec.asc & nxt0) | (~spec.asc & nxt1)));
        for_each_set_bit(movable, 0, [&](unsigned sw) {
          const auto low = static_cast<unsigned>(sw & low_mask(b));
          const unsigned high = (sw >> b) << (b + 1);
          const PortId r0 = high | low;
          const PortId r1 = r0 | (PortId{1} << b);
          const bool ascending = ((spec.asc >> sw) & 1) != 0;

          if (((both >> sw) & 1) != 0) {
            // Compare-exchange on destination keys.
            const std::uint8_t key0 = dst[r0];
            const std::uint8_t key1 = dst[r1];
            const bool swap = (key0 > key1) == ascending && key0 != key1;
            const PortId out_for_in0 = swap ? r1 : r0;
            const PortId out_for_in1 = swap ? r0 : r1;
            move_next(links[r0], key0, out_for_in0);
            move_next(links[r1], key1, out_for_in1);
            row_here &=
                ~((std::uint64_t{1} << r0) | (std::uint64_t{1} << r1));
            if constexpr (kMeasured) switch_acc += spec.act2;
          } else {
            const PortId in_row =
                ((row_here >> r0) & 1) != 0 ? r0 : r1;
            const PortId out_row = ascending ? r0 : r1;
            move_next(links[in_row], dst[in_row], out_row);
            row_here &= ~(std::uint64_t{1} << in_row);
            if constexpr (kMeasured) switch_acc += spec.act1;
          }
        });
        sw_here &= ~movable;  // every movable switch drained fully
      } else {
        // Snapshot walk: a vacate only clears the switch being walked.
        const std::uint64_t walk = sw_here;
        for_each_set_bit(walk, 0, [&](unsigned sw) {
          const auto low = static_cast<unsigned>(sw & low_mask(b));
          const unsigned high = (sw >> b) << (b + 1);
          const PortId r0 = high | low;
          const PortId r1 = r0 | (PortId{1} << b);

          // Same-packet word order overrides the alternating priority.
          PortId first_row = parity ? r1 : r0;
          PortId second_row = parity ? r0 : r1;
          const bool has0 = ((row_here >> r0) & 1) != 0;
          const bool has1 = ((row_here >> r1) & 1) != 0;
          if (has0 && has1 && links[r0].id == links[r1].id) {
            const bool zero_first = links[r0].seq < links[r1].seq;
            first_row = zero_first ? r0 : r1;
            second_row = zero_first ? r1 : r0;
          }

          unsigned moved = 0;
          for (const PortId in_row : {first_row, second_row}) {
            if (((row_here >> in_row) & 1) == 0) continue;
            const std::uint8_t dest = dst[in_row];
            const PortId out_row =
                (in_row & ~(PortId{1} << b)) |
                (static_cast<PortId>((dest >> b) & 1u) << b);
            const bool free =
                last_stage || ((row_next >> out_row) & 1) == 0;
            if (!free) continue;  // stall in place; upstream back-pressures
            const Flit& slot = links[in_row];
            if (last_stage) {
              // move_word's delivery arm: wire charge, then straight to
              // the egress (out_row == dest by the self-routing
              // invariant the scalar asserts).
              const int flips = toggled_bits(wl[out_row], slot.data);
              wl[out_row] = slot.data;
              if constexpr (kMeasured) {
                wire_acc += wires_.flip_energy_j(flips, spec.grids);
              } else {
                (void)flips;
              }
              deliver(slot, out_row);
            } else {
              move_next(slot, dest, out_row);
            }
            vacate_here(in_row);
            ++moved;
          }
          charge_activity(moved);
        });
      }

      row_occ_[stage] = row_here;
      sw_occ_[stage] = sw_here;
      if (!last_stage) {
        row_occ_[stage + 1] = row_next;
        sw_occ_[stage + 1] = sw_next;
      }
    }
    if constexpr (kMeasured) {
      acc.wire_j = wire_acc;
      acc.switch_j = switch_acc;
    }
  }
};

/// Banyan staged fabric: links and occupancy become per-stage plane words
/// and each node FIFO becomes two ring planes, one per switch output bit,
/// with a parallel in-SRAM flag array: the scalar FIFO's "oldest word for
/// output b" scan is a ring-front read here. The scalar tick walks every
/// switch of a stage; an idle switch (no input words, empty FIFO)
/// contributes nothing except its priority toggle — which toggles every
/// tick unconditionally and therefore equals cycle & 1 — so this tick
/// walks an active-switch mask instead, bit-identically. Buffer READ/WRITE
/// energy and the buffered/SRAM/stall counters follow the scalar order
/// exactly; the counters accumulate across warmup (the scalar reports
/// measurement-window deltas).
struct BanyanStages {
  static constexpr bool kFixedLatency = false;  ///< queueing varies latency
  static constexpr bool kNeedsIds = false;      ///< no same-packet rule

  /// 16-byte link/FIFO word; dest and row fit a byte each (N <= 64).
  struct Flit {
    Word data = 0;
    std::uint32_t inj = 0;  ///< head-injection cycle stamp
    std::uint32_t seq = 0;
    std::uint8_t dest = 0;
    std::uint8_t row = 0;   ///< straight-vs-cross wire classification
  };
  static_assert(sizeof(Flit) == kStageFlitBytes);

  unsigned n_ = 0;
  unsigned stages_ = 0;
  std::uint32_t cap_ = 0;   ///< buffer_words_per_switch
  std::uint32_t skid_ = 0;  ///< buffer_skid_words
  bool charge_rw_ = false;
  bool dram_ = false;
  double access_j_ = 0.0;   ///< SRAM access energy per word
  double refresh_j_ = 0.0;  ///< DRAM refresh energy per cycle (Eq. 1 E_ref)
  double act1_ = 0.0;
  double act2_ = 0.0;
  double straight_grids_ = 0.0;
  std::vector<double> cross_grids_;  // [stage]
  WireEnergyModel wires_ = WireEnergyModel{};

  std::vector<Flit> links_;          // [stage * n_ + row]
  std::vector<std::uint64_t> occ_;   // [stage]
  std::vector<Word> wire_last_;      // [stage * n_ + row]
  /// Bit sw: switch has any input word or buffered word — the only
  /// switches whose scalar iteration does anything.
  std::vector<std::uint64_t> active_;  // [stage]

  // Node FIFO ring planes. Ring r = (stage * (n_/2) + sw) * 2 + out_bit;
  // slot = r * cap_ + pos.
  std::vector<Flit> fifo_flit_;
  std::vector<char> fifo_sram_;  ///< parallel in-SRAM flags (READ charging)
  std::vector<std::uint32_t> fifo_head_;  // [ring]
  std::vector<std::uint32_t> fifo_size_;  // [ring]

  void init(const SimConfig& c) {
    n_ = c.ports;
    stages_ = log2_exact(n_);
    cap_ = static_cast<std::uint32_t>(c.buffer_words_per_switch);
    skid_ = static_cast<std::uint32_t>(c.buffer_skid_words);
    charge_rw_ = c.charge_buffer_read_and_write;
    dram_ = c.dram_buffers;
    wires_ = WireEnergyModel{c.tech};
    const SramBufferModel buffer_model = SramBufferModel::for_banyan(
        c.ports,
        static_cast<double>(c.buffer_words_per_switch) * c.tech.bus_width);
    access_j_ = buffer_model.access_energy_per_bit_j() * c.tech.bus_width;
    if (dram_) {
      // The scalar tick rebuilds this model every cycle; the product is a
      // pure function of the config, so one evaluation is the same double.
      const DramBufferModel dram{buffer_model.capacity_bits(),
                                 c.dram_retention_s};
      refresh_j_ = dram.refresh_power_w() * c.tech.cycle_time_s();
    }
    act1_ = c.switches.banyan2x2.energy_per_bit(0b01u) * c.tech.bus_width;
    act2_ = c.switches.banyan2x2.energy_per_bit(0b11u) * c.tech.bus_width;
    const thompson::BanyanEmbedding embedding{c.ports};
    straight_grids_ = embedding.straight_link_grids();
    cross_grids_.reserve(stages_);
    for (unsigned s = 0; s < stages_; ++s) {
      cross_grids_.push_back(embedding.cross_link_grids(s));
    }

    links_.assign(std::size_t{stages_} * n_, Flit{});
    occ_.assign(stages_, 0);
    wire_last_.assign(std::size_t{stages_} * n_, 0);
    active_.assign(stages_, 0);
    const std::size_t rings = std::size_t{stages_} * (n_ / 2) * 2;
    fifo_flit_.assign(rings * cap_, Flit{});
    fifo_sram_.assign(rings * cap_, 0);
    fifo_head_.assign(rings, 0);
    fifo_size_.assign(rings, 0);
  }

  [[nodiscard]] static unsigned switch_of(unsigned stage, PortId row) {
    const auto low = static_cast<unsigned>(row & low_mask(stage));
    const unsigned high = (row >> (stage + 1)) << stage;
    return high | low;
  }

  [[nodiscard]] bool can_accept(PortId ingress) const {
    return ((occ_[0] >> ingress) & 1) == 0;
  }

  void inject(PortId ingress, PortId dest, Word data, std::uint32_t seq,
              std::uint64_t /*id*/, Cycle inj) {
    links_[ingress] =
        Flit{data, static_cast<std::uint32_t>(inj), seq,
             static_cast<std::uint8_t>(dest),
             static_cast<std::uint8_t>(ingress)};
    occ_[0] |= std::uint64_t{1} << ingress;
    active_[0] |= std::uint64_t{1} << switch_of(0, ingress);
  }

  template <bool kMeasured, class Deliver>
  void tick(Cycle cycle, Accum& acc, Deliver&& deliver) {
    // Register-held energy accumulators, as in the Batcher-Banyan tick:
    // same adds in the same order, written back once.
    double wire_acc = 0.0;
    double switch_acc = 0.0;
    double buffer_acc = 0.0;
    if constexpr (kMeasured) {
      wire_acc = acc.wire_j;
      switch_acc = acc.switch_j;
      buffer_acc = acc.buffer_j;
      if (dram_) buffer_acc += refresh_j_;
    }
    const unsigned half = n_ / 2;
    const bool parity = (cycle & 1) != 0;  // input_priority_, all switches
    for (unsigned stage = stages_; stage-- > 0;) {
      // Snapshot walk over the active mask; occupancy and activity words
      // stay in locals for the stage (switches touch disjoint rows) and
      // are stored back once.
      const std::uint64_t walk = active_[stage];
      if (walk == 0) continue;  // scalar iterates only no-op switches
      const bool last_stage = (stage == stages_ - 1);
      Flit* const links = links_.data() + std::size_t{stage} * n_;
      Word* const wl = wire_last_.data() + std::size_t{stage} * n_;
      const std::size_t fbase = std::size_t{stage} * half;
      std::uint64_t occ_here = occ_[stage];
      std::uint64_t act_here = walk;
      std::uint64_t occ_next = last_stage ? 0 : occ_[stage + 1];
      std::uint64_t act_next = last_stage ? 0 : active_[stage + 1];
      for_each_set_bit(walk, 0, [&](unsigned sw) {
        const auto low = static_cast<unsigned>(sw & low_mask(stage));
        const unsigned high = (sw >> stage) << (stage + 1);
        const PortId r0 = high | low;
        const PortId r1 = r0 | (PortId{1} << stage);
        const std::size_t fi = (fbase + sw) * 2;  // ring pair base
        const PortId first_row = parity ? r1 : r0;
        const PortId second_row = parity ? r0 : r1;
        unsigned moved = 0;

        for (const unsigned out_bit : {0u, 1u}) {
          const PortId out_row = (r0 & ~(PortId{1} << stage)) |
                                 (static_cast<PortId>(out_bit) << stage);
          const bool slot_free =
              last_stage || ((occ_next >> out_row) & 1) == 0;
          if (!slot_free) continue;

          // Oldest buffered word for this output goes first; otherwise
          // take the priority input whose destination bit matches.
          Flit mover;
          bool have = false;
          const std::size_t ring = fi + out_bit;
          if (fifo_size_[ring] != 0) {
            const std::size_t slot =
                ring * cap_ + fifo_head_[ring];
            mover = fifo_flit_[slot];
            if (fifo_sram_[slot] != 0 && charge_rw_) {
              if constexpr (kMeasured) {
                buffer_acc += access_j_;  // the READ back out
              }
            }
            if (++fifo_head_[ring] == cap_) fifo_head_[ring] = 0;
            --fifo_size_[ring];
            have = true;
          } else {
            for (const PortId in_row : {first_row, second_row}) {
              if (((occ_here >> in_row) & 1) != 0 &&
                  ((links[in_row].dest >> stage) & 1u) == out_bit) {
                mover = links[in_row];
                occ_here &= ~(std::uint64_t{1} << in_row);
                have = true;
                break;
              }
            }
          }
          if (!have) continue;

          // charge_wire: straight link vs stage crossing.
          const double grids = mover.row == out_row ? straight_grids_
                                                    : cross_grids_[stage];
          const int flips = toggled_bits(wl[out_row], mover.data);
          wl[out_row] = mover.data;
          if constexpr (kMeasured) {
            wire_acc += wires_.flip_energy_j(flips, grids);
          } else {
            (void)flips;
          }
          mover.row = static_cast<std::uint8_t>(out_row);
          ++moved;
          if (last_stage) {
            deliver(mover, out_row);
          } else {
            links[n_ + out_row] = mover;  // stage + 1 plane is contiguous
            occ_next |= std::uint64_t{1} << out_row;
            act_next |= std::uint64_t{1} << switch_of(stage + 1, out_row);
          }
        }

        // Losers go to the FIFO (skid slots free, deeper backlog pays the
        // SRAM WRITE); a full FIFO stalls them in place.
        for (const PortId in_row : {r0, r1}) {
          if (((occ_here >> in_row) & 1) == 0) continue;
          if (fifo_size_[fi] + fifo_size_[fi + 1] < cap_) {
            const bool in_sram =
                fifo_size_[fi] + fifo_size_[fi + 1] >= skid_;
            if (in_sram) {
              if constexpr (kMeasured) {
                buffer_acc += access_j_;  // the WRITE
              }
              ++acc.sram;
            }
            ++acc.buffered;
            const Flit& slot = links[in_row];
            const unsigned bit = (slot.dest >> stage) & 1u;
            const std::size_t ring = fi + bit;
            std::uint32_t tail = fifo_head_[ring] + fifo_size_[ring];
            if (tail >= cap_) tail -= cap_;
            fifo_flit_[ring * cap_ + tail] = slot;
            fifo_sram_[ring * cap_ + tail] = in_sram ? 1 : 0;
            ++fifo_size_[ring];
            occ_here &= ~(std::uint64_t{1} << in_row);
          } else {
            ++acc.stalls;
          }
        }

        if constexpr (kMeasured) {
          if (moved != 0) {
            switch_acc += moved >= 2 ? act2_ : act1_;
          }
        }
        // Dormancy: drop the switch from the active mask once it holds no
        // state (the scalar would keep iterating it as a no-op).
        if ((((occ_here >> r0) | (occ_here >> r1)) & 1) == 0 &&
            fifo_size_[fi] == 0 && fifo_size_[fi + 1] == 0) {
          act_here &= ~(std::uint64_t{1} << sw);
        }
      });
      occ_[stage] = occ_here;
      active_[stage] = act_here;
      if (!last_stage) {
        occ_[stage + 1] = occ_next;
        active_[stage + 1] = act_next;
      }
    }
    if constexpr (kMeasured) {
      acc.wire_j = wire_acc;
      acc.switch_j = switch_acc;
      acc.buffer_j = buffer_acc;
    }
  }
};

/// Mesh staged fabric (the network-on-chip extension): the scalar
/// MeshFabric's k x k routers under XY routing. Input registers become
/// [router * 5 + side] planes with one occupancy word per side, and each
/// router's shared FIFO becomes five rings, one per output, with a
/// parallel in-SRAM flag (the banyan ring idiom) and one per-router count
/// against buffer_words_per_switch. A word joins the ring of the output it
/// routes to, in FIFO order, so the front of ring o is exactly the word the
/// scalar's "oldest buffered word headed for o" scan returns. A byte table
/// replaces route(). The scalar rr_[r] is bumped once per tick for every
/// router, so it equals the tick count, cycle + 1, and needs no storage.
///
/// The scalar tick repeats a full decision sweep (routers ascending, each
/// router's outputs L, E, W, N, S) until nothing moves. This tick makes the
/// same moves in the same order but visits only routers that can move:
///  - Within a tick, movers only disappear (input registers fill only at
///    the commit, FIFOs only in the leftover pass) and claims only
///    accumulate. An output that failed for want of a mover, or on a
///    claimed target, fails for the rest of the tick.
///  - The one failure that can clear is an occupied target register, and
///    a register is freed only when its own router moves that word out.
///  - So a visit can move a word only in the first sweep, at a router that
///    holds a word, or later at a router whose target was freed after its
///    previous visit. The freeing router r hands the register's feeder f
///    to the current sweep if f > r (the scalar reaches f later in this
///    sweep), and to the next sweep otherwise.
/// Every scalar visit skipped here is a no-op that changes no state, so
/// every move, and every energy add, lands in the scalar's per-accumulator
/// order. Buffer READ/WRITE energy and the buffered/SRAM/stall counters
/// follow the scalar (which has no DRAM refresh: mesh ignores
/// dram_buffers); the counters accumulate across warmup, like banyan's.
struct MeshStages {
  static constexpr bool kFixedLatency = false;  ///< queueing varies latency
  static constexpr bool kNeedsIds = false;      ///< no same-packet rule

  /// 16-byte register/FIFO word; dest fits a byte (N <= 64).
  struct Flit {
    Word data = 0;
    std::uint32_t inj = 0;  ///< head-injection cycle stamp
    std::uint32_t seq = 0;
    std::uint8_t dest = 0;
  };
  static_assert(sizeof(Flit) == kStageFlitBytes);

  /// MeshFabric's direction numbering, shared by input sides and outputs.
  enum : unsigned { kLocal, kEast, kWest, kNorth, kSouth, kDirs };
  /// The input side a word forwarded through output o arrives on.
  static constexpr unsigned kArrival[kDirs] = {kLocal, kWest, kEast, kSouth,
                                               kNorth};

  unsigned n_ = 0;
  std::uint32_t cap_ = 0;   ///< buffer_words_per_switch
  std::uint32_t skid_ = 0;  ///< buffer_skid_words
  bool charge_rw_ = false;
  double access_j_ = 0.0;  ///< SRAM access energy per word
  double switch_j_ = 0.0;  ///< 5-input mux energy per word
  WireEnergyModel wires_ = WireEnergyModel{};
  /// Router offset of the neighbour in each direction. The neighbour in
  /// direction d is both output d's target and input side d's feeder.
  int step_[kDirs] = {};

  std::vector<Flit> in_;              // [router * kDirs + side]
  std::uint64_t in_occ_[kDirs] = {};  // [side], bit r = register full
  std::vector<std::uint8_t> route_;   // [router * n_ + dest]: output
  std::vector<Word> wire_last_;       // [router * kDirs + output]

  // FIFO rings: ring = router * kDirs + output; slot = ring * cap_ + pos.
  std::vector<Flit> fifo_flit_;
  std::vector<char> fifo_sram_;  ///< parallel in-SRAM flags (READ charging)
  std::vector<std::uint32_t> fifo_head_;   // [ring]
  std::vector<std::uint32_t> fifo_size_;   // [ring]
  std::vector<std::uint32_t> fifo_count_;  // [router], all five rings
  std::uint64_t fifo_any_ = 0;             // bit r = fifo_count_[r] != 0

  void init(const SimConfig& c) {
    n_ = c.ports;
    unsigned k = 2;  // lane_sim_fallback_reason admits only k x k meshes
    while (k * k < n_) ++k;
    cap_ = static_cast<std::uint32_t>(c.buffer_words_per_switch);
    skid_ = static_cast<std::uint32_t>(c.buffer_skid_words);
    charge_rw_ = c.charge_buffer_read_and_write;
    wires_ = WireEnergyModel{c.tech};
    // The scalar constructor's shared-SRAM size and per-word products.
    const SramBufferModel buffer_model{
        static_cast<double>(c.buffer_words_per_switch) * c.tech.bus_width *
        c.ports};
    access_j_ = buffer_model.access_energy_per_bit_j() * c.tech.bus_width;
    switch_j_ = c.switches.mux_energy_per_bit(kDirs) * c.tech.bus_width;
    const int row = static_cast<int>(k);  // routers per mesh row
    step_[kLocal] = 0;
    step_[kEast] = 1;
    step_[kWest] = -1;
    step_[kNorth] = -row;
    step_[kSouth] = row;

    route_.assign(std::size_t{n_} * n_, kLocal);
    for (unsigned r = 0; r < n_; ++r) {
      const unsigned x = r % k, y = r / k;
      for (unsigned dest = 0; dest < n_; ++dest) {
        const unsigned dx = dest % k, dy = dest / k;
        unsigned out = kLocal;  // MeshFabric::route
        if (x < dx) {
          out = kEast;
        } else if (x > dx) {
          out = kWest;
        } else if (y != dy) {
          out = y < dy ? kSouth : kNorth;
        }
        route_[std::size_t{r} * n_ + dest] = static_cast<std::uint8_t>(out);
      }
    }
    const std::size_t rings = std::size_t{n_} * kDirs;
    in_.assign(rings, Flit{});
    wire_last_.assign(rings, 0);
    fifo_flit_.assign(rings * cap_, Flit{});
    fifo_sram_.assign(rings * cap_, 0);
    fifo_head_.assign(rings, 0);
    fifo_size_.assign(rings, 0);
    fifo_count_.assign(n_, 0);
  }

  [[nodiscard]] unsigned neighbor(unsigned router, unsigned dir) const {
    return static_cast<unsigned>(static_cast<int>(router) + step_[dir]);
  }

  [[nodiscard]] bool can_accept(PortId ingress) const {
    return ((in_occ_[kLocal] >> ingress) & 1) == 0;
  }

  void inject(PortId ingress, PortId dest, Word data, std::uint32_t seq,
              std::uint64_t /*id*/, Cycle inj) {
    in_[std::size_t{ingress} * kDirs + kLocal] =
        Flit{data, static_cast<std::uint32_t>(inj), seq,
             static_cast<std::uint8_t>(dest)};
    in_occ_[kLocal] |= std::uint64_t{1} << ingress;
  }

  template <bool kMeasured, class Deliver>
  void tick(Cycle cycle, Accum& acc, Deliver&& deliver) {
    // Register-held energy accumulators, as in the banyan tick.
    double wire_acc = 0.0;
    double switch_acc = 0.0;
    double buffer_acc = 0.0;
    if constexpr (kMeasured) {
      wire_acc = acc.wire_j;
      switch_acc = acc.switch_j;
      buffer_acc = acc.buffer_j;
    }
    const auto rr = static_cast<unsigned>((cycle + 1) % kDirs);
    // Claimed target registers stay empty until the commit, so a move
    // writes its word into the target slot at once; only the occupancy
    // bit waits.
    std::uint64_t claimed[kDirs] = {};
    std::uint8_t used[64] = {};  // [router], bit o = output o moved

    // One scalar router visit. A freed input register's feeder joins
    // `sweep` when it lies above r, else `next`.
    const auto visit = [&](unsigned r, std::uint64_t& sweep,
                           std::uint64_t& next) {
      const std::uint64_t bit = std::uint64_t{1} << r;
      const Flit* const in = in_.data() + std::size_t{r} * kDirs;
      const std::uint8_t* const route = route_.data() + std::size_t{r} * n_;
      const std::size_t ring0 = std::size_t{r} * kDirs;
      // by_out[o]: the occupied input sides whose word heads for o. `want`:
      // the outputs some word heads for. XY routing never heads a word off
      // the mesh, so `want` holds linked outputs only and the scalar's edge
      // tests only ever skip outputs with no mover.
      unsigned by_out[kDirs] = {};
      unsigned want = 0;
      for (unsigned d = 0; d < kDirs; ++d) {
        by_out[route[in[d].dest]] |=
            static_cast<unsigned>((in_occ_[d] >> r) & 1) << d;
        want |= static_cast<unsigned>(fifo_size_[ring0 + d] != 0) << d;
      }
      for (unsigned o = 0; o < kDirs; ++o) {
        want |= static_cast<unsigned>(by_out[o] != 0) << o;
      }
      const unsigned open = want & ~static_cast<unsigned>(used[r]);
      for_each_set_bit(open, 0, [&](unsigned o) {
        // Forwarding target must be free now and unclaimed this tick.
        unsigned target = 0;
        unsigned target_side = kLocal;
        if (o != kLocal) {
          target = neighbor(r, o);
          target_side = kArrival[o];
          if ((((in_occ_[target_side] | claimed[target_side]) >> target) &
               1) != 0) {
            return;
          }
        }
        // Oldest buffered word headed this way goes first (packet order);
        // otherwise the first input register heading there, round-robin
        // from rr.
        Flit mover;
        const std::size_t ring = ring0 + o;
        if (fifo_size_[ring] != 0) {
          const std::size_t slot = ring * cap_ + fifo_head_[ring];
          mover = fifo_flit_[slot];
          if (fifo_sram_[slot] != 0 && charge_rw_) {
            if constexpr (kMeasured) {
              buffer_acc += access_j_;  // SRAM read-out
            }
          }
          if (++fifo_head_[ring] == cap_) fifo_head_[ring] = 0;
          --fifo_size_[ring];
          if (--fifo_count_[r] == 0) fifo_any_ &= ~bit;
        } else {
          const unsigned sides = by_out[o];
          const unsigned from_rr =
              ((sides >> rr) | (sides << (kDirs - rr))) & low_mask(kDirs);
          unsigned d = rr + static_cast<unsigned>(std::countr_zero(from_rr));
          if (d >= kDirs) d -= kDirs;
          mover = in[d];
          in_occ_[d] &= ~bit;
          if (d != kLocal) {
            const unsigned feeder = neighbor(r, d);
            (feeder > r ? sweep : next) |= std::uint64_t{1} << feeder;
          }
        }

        used[r] |= static_cast<std::uint8_t>(1u << o);
        if constexpr (kMeasured) switch_acc += switch_j_;
        Word& wire = wire_last_[ring];
        const int flips = toggled_bits(wire, mover.data);
        wire = mover.data;
        if constexpr (kMeasured) {
          wire_acc +=
              wires_.flip_energy_j(flips, MeshFabric::hop_wire_grids());
        } else {
          (void)flips;
        }
        if (o == kLocal) {
          deliver(mover, static_cast<PortId>(r));
        } else {
          in_[std::size_t{target} * kDirs + target_side] = mover;
          claimed[target_side] |= std::uint64_t{1} << target;
        }
      });
    };

    std::uint64_t sweep = fifo_any_;
    for (const std::uint64_t occ : in_occ_) sweep |= occ;
    while (sweep != 0) {
      std::uint64_t next = 0;
      do {
        const auto r = static_cast<unsigned>(std::countr_zero(sweep));
        sweep &= sweep - 1;
        visit(r, sweep, next);
      } while (sweep != 0);
      sweep = next;
    }

    // Leftover input words join their router's FIFO (skid bypass, then
    // SRAM), or stall on their link when the FIFO is full.
    std::uint64_t left = 0;
    for (const std::uint64_t occ : in_occ_) left |= occ;
    for_each_set_bit(left, 0, [&](unsigned r) {
      const std::uint64_t bit = std::uint64_t{1} << r;
      std::uint32_t& count = fifo_count_[r];
      for (unsigned d = 0; d < kDirs; ++d) {
        if (((in_occ_[d] >> r) & 1) == 0) continue;
        if (count >= cap_) {
          ++acc.stalls;
          continue;
        }
        const bool in_sram = count >= skid_;
        if (in_sram) {
          if constexpr (kMeasured) {
            buffer_acc += access_j_;  // the WRITE
          }
          ++acc.sram;
        }
        ++acc.buffered;
        const Flit& word = in_[std::size_t{r} * kDirs + d];
        const std::size_t ring =
            std::size_t{r} * kDirs + route_[std::size_t{r} * n_ + word.dest];
        std::uint32_t tail = fifo_head_[ring] + fifo_size_[ring];
        if (tail >= cap_) tail -= cap_;
        fifo_flit_[ring * cap_ + tail] = word;
        fifo_sram_[ring * cap_ + tail] = in_sram ? 1 : 0;
        ++fifo_size_[ring];
        ++count;
        fifo_any_ |= bit;
        in_occ_[d] &= ~bit;
      }
    });

    // Commit: forwarded words land in their target registers.
    for (unsigned d = 0; d < kDirs; ++d) in_occ_[d] |= claimed[d];
    if constexpr (kMeasured) {
      acc.wire_j = wire_acc;
      acc.switch_j = switch_acc;
      acc.buffer_j = buffer_acc;
    }
  }
};

/// Multi-hop engine: an ingress front feeding a staged fabric
/// (Batcher-Banyan, banyan or mesh) through the scalar routers' generic
/// inject-then-tick path — per-port can_accept back-pressure, fabric tick
/// after all injections, and (for variable-latency fabrics) egress unlocks
/// collected at tail delivery and applied after the tick.
template <class Fab, class FrontT>
struct StagedEngine {
  unsigned n_ = 0;
  unsigned pw_ = 0;
  Fab fab_;
  FrontT front_;
  Accum acc_;

  void init(const SimConfig& c) {
    n_ = c.ports;
    pw_ = c.packet_words;
    fab_.init(c);
    front_.init(c, /*with_ids=*/Fab::kNeedsIds);
  }

  void enqueue(PortId ingress, PortId dest, Cycle cycle, Rng& frng) {
    front_.enqueue(ingress, dest, cycle, frng);
  }

  template <bool kMeasured>
  void step(Cycle cycle) {
    front_.schedule(cycle);
    // Word injection: streaming ports ascending, with fabric back-pressure
    // (a refused word leaves the cursor untouched, as the scalar
    // try_inject).
    for_each_set_bit(front_.streaming_, 0, [&](unsigned p) {
      if (!fab_.can_accept(static_cast<PortId>(p))) return;
      StrCursor& cur = front_.str_[p];
      const std::uint32_t slot = cur.slot;
      const unsigned e = cur.dest;
      const std::uint32_t left = cur.left;
      const std::uint32_t idx = cur.idx;
      cur.idx = idx + 1;
      cur.left = left - 1;
      fab_.inject(static_cast<PortId>(p), static_cast<PortId>(e),
                  front_.words_[idx], pw_ - left,
                  front_.id_of(static_cast<PortId>(p), slot),
                  front_.str_start_[p]);
      if (left == 1) {
        front_.on_tail(p, e, slot, cycle, Fab::kFixedLatency);
      }
    });
    // Fabric advance; tail deliveries unlock egresses after the tick
    // (variable-latency fabrics only), exactly the routers' step 5.
    [[maybe_unused]] std::uint64_t pending = 0;
    fab_.template tick<kMeasured>(
        cycle, acc_, [&](const typename Fab::Flit& f, PortId out_row) {
          if constexpr (kMeasured) ++acc_.words;
          if (f.seq + 1 == pw_) {
            if constexpr (kMeasured) {
              ++acc_.packets;
              acc_.latency_sum += static_cast<double>(cycle - f.inj);
              ++acc_.latency_cnt;
            }
            if constexpr (!Fab::kFixedLatency) {
              pending |= std::uint64_t{1} << out_row;
            }
          }
        });
    if constexpr (!Fab::kFixedLatency) {
      if (pending != 0) front_.unlock_mask(pending);
    }
  }

  void reset_measurement() {
    acc_.reset_measurement();
    front_.snapshot_drops();
  }

  void finish() {}  // nothing deferred

  [[nodiscard]] SimResult result(const SimConfig& c) const {
    return make_result(c, acc_, front_.drops_ - front_.drops_before_);
  }
};

/// One run through the full warmup + measurement range on fresh engine and
/// traffic state: per cycle, the arrivals, then the engine's step.
template <class Eng>
SimResult run(const SimConfig& c) {
  Eng eng;
  eng.init(c);
  Traffic traffic;
  traffic.init(c);
  Cycle cycle = 0;
  const auto arrive = [&] {
    traffic.arrivals([&](PortId p, PortId dest, Rng& frng) {
      eng.enqueue(p, dest, cycle, frng);
    });
  };
  for (Cycle t = 0; t < c.warmup_cycles; ++t, ++cycle) {
    arrive();
    eng.template step<false>(cycle);
  }
  eng.reset_measurement();
  for (Cycle t = 0; t < c.measure_cycles; ++t, ++cycle) {
    arrive();
    eng.template step<true>(cycle);
  }
  eng.finish();
  return eng.result(c);
}

}  // namespace

/// Dispatches (architecture x scheme) to the monomorphized engine. The
/// caller has already verified lane_sim_supported(), so every reachable
/// cell has an engine.
SimResult simulate(const SimConfig& config) {
  const bool voq = config.scheme == RouterScheme::kVoq;
  switch (config.arch) {
    case Architecture::kCrossbar:
      return voq ? run<FusedEngine<Architecture::kCrossbar, VoqFront>>(config)
                 : run<FusedEngine<Architecture::kCrossbar, FifoFront>>(
                       config);
    case Architecture::kFullyConnected:
      return voq ? run<FusedEngine<Architecture::kFullyConnected, VoqFront>>(
                       config)
                 : run<FusedEngine<Architecture::kFullyConnected, FifoFront>>(
                       config);
    case Architecture::kBatcherBanyan:
      return voq ? run<StagedEngine<BatcherStages, VoqFront>>(config)
                 : run<StagedEngine<BatcherStages, FifoFront>>(config);
    case Architecture::kBanyan:
      return voq ? run<StagedEngine<BanyanStages, VoqFront>>(config)
                 : run<StagedEngine<BanyanStages, FifoFront>>(config);
    case Architecture::kMesh:
      return voq ? run<StagedEngine<MeshStages, VoqFront>>(config)
                 : run<StagedEngine<MeshStages, FifoFront>>(config);
  }
  return SimResult{};  // unreachable behind lane_sim_supported()
}

}  // namespace sfab::detail
