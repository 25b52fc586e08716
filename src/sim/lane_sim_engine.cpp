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
// Every fabric's tick keeps its energy accumulators in registers for the
// tick and writes them back once; the adds themselves keep the scalar
// order.
//
// Coverage: every (architecture, scheme) cell of the sweep grid. One
// engine, Engine<Fabric, Front>, drives every fabric — a one-stage
// SingleHopStage for crossbar and fully-connected, BatcherStages,
// BanyanStages and MeshStages for the multi-hop fabrics — behind either a
// VOQ/iSLIP or a FIFO/HOL ingress front. run_simulation hands it only
// configs validate() accepts.

#include <algorithm>
#include <cassert>
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

// Every fabric defines a Flit carrying only what its tick and delivery
// read — the mirror of the scalar Flit (kStageFlitBytes; Batcher-Banyan's
// Flit is only the delivery record beside its packed rows). `seq + 1 ==
// packet_words` derives the tail flag and `inj` carries the grant cycle,
// so tail delivery computes latency without the scalar collector's
// inflight map. validate() bounds the cycle horizon so the 32-bit
// injection stamps cannot wrap.

/// The scalar PacketFactory::make ran (and advanced its generator) before
/// the ingress dropped the packet — consume the same payload draws.
inline void consume_payload_draws(unsigned pw, PayloadKind payload,
                                  Rng& frng) {
  if (payload == PayloadKind::kRandom) {
    for (unsigned w = 1; w < pw; ++w) (void)frng.next_word();
  }
}

/// Traffic state of a run: destination pattern, the
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

  // VOQ banks: bank b = ingress owns spb_ packet slots; VOQs are intrusive
  // lists over the slot pool, occupancy mirrored in mask words.
  std::vector<std::uint32_t> slot_next_;  // [bank * spb_ + slot]
  std::vector<std::uint32_t> free_head_;  // [bank]
  std::vector<Word> words_;               // [(bank * spb_ + slot) * pw_]
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

  void init(const SimConfig& c) {
    n_ = c.ports;
    pw_ = c.packet_words;
    cap_ = static_cast<std::uint32_t>(c.ingress_queue_packets);
    spb_ = cap_ + 1;
    iterations_ = c.islip_iterations == 0 ? c.ports : c.islip_iterations;
    payload_ = c.payload;

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

  std::vector<std::uint32_t> head_;   // [bank]
  std::vector<std::uint32_t> size_;   // [bank]
  std::vector<Word> words_;           // [(bank * cap_ + pos) * pw_]
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

  void init(const SimConfig& c) {
    n_ = c.ports;
    pw_ = c.packet_words;
    cap_ = static_cast<std::uint32_t>(c.ingress_queue_packets);
    payload_ = c.payload;

    head_.assign(n_, 0);
    size_.assign(n_, 0);
    words_.assign(std::size_t{n_} * cap_ * pw_ + 1, 0);
    head_since_.assign(n_, 0);
    cont_.assign(n_, 0);
    rr_next_.assign(n_, 0);
    str_.assign(n_, StrCursor{});
    str_start_.assign(n_, 0);
  }

  void enqueue(PortId ingress, PortId dest, Cycle cycle, Rng& frng) {
    const std::size_t b = ingress;
    if (size_[b] == cap_) {
      ++drops_;
      consume_payload_draws(pw_, payload_, frng);
      return;
    }
    std::uint32_t pos = head_[b] + size_[b];
    if (pos >= cap_) pos -= cap_;
    fill_packet_words(words_.data() + (b * cap_ + pos) * pw_, pw_, dest,
                      payload_, frng);
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

  void snapshot_drops() { drops_before_ = drops_; }
};

/// Measurement accumulators of a run, mirroring the scalar
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

/// Single-hop fabric: crossbar or fully-connected, a multistage fabric with
/// one stage (Eq. 3: a word costs one switch term plus its wire flips).
/// The scalar tick delivers every word injected before it, so a slot is
/// always free to accept and the egress reopens at tail injection. The
/// tick walks the occupied slots ingress-ascending, as
/// CrossbarFabric::tick and FullyConnectedFabric::tick do.
template <Architecture kArch>
struct SingleHopStage {
  static constexpr bool kFixedLatency = true;  ///< delivered the same cycle
  static constexpr bool kXbar = (kArch == Architecture::kCrossbar);

  /// 16-byte slot word; dest fits a byte (N <= 64).
  struct Flit {
    Word data = 0;
    std::uint32_t inj = 0;  ///< head-injection cycle stamp
    std::uint32_t seq = 0;
    std::uint8_t dest = 0;
  };
  static_assert(sizeof(Flit) == kStageFlitBytes);

  /// Eq. 3's per-word switch constant: N * E_S (crossbar crosspoint row)
  /// or the N-input mux (fully-connected) — identical expression to the
  /// scalar fabric constructors.
  double switch_word_j_ = 0.0;
  double row_len_ = 0.0;  ///< crossbar row or fully-connected path, grids
  double col_len_ = 0.0;  ///< crossbar column, grids
  WireEnergyModel wires_ = WireEnergyModel{};
  Flit slots_[64] = {};     // [ingress]
  std::uint64_t occ_ = 0;   // bit i = slot i holds a word
  Word row_last_[64] = {};  // [ingress] wire polarity
  Word col_last_[64] = {};  // [egress], crossbar only

  void init(const SimConfig& c) {
    wires_ = WireEnergyModel{c.tech};
    if constexpr (kXbar) {
      const thompson::CrossbarEmbedding embedding{c.ports};
      switch_word_j_ = c.ports * c.switches.crosspoint.energy_per_bit(1u) *
                       c.tech.bus_width;
      row_len_ = embedding.row_wire_grids();
      col_len_ = embedding.column_wire_grids();
    } else {
      const thompson::FullyConnectedEmbedding embedding{c.ports};
      switch_word_j_ =
          c.switches.mux_energy_per_bit(c.ports) * c.tech.bus_width;
      row_len_ = embedding.path_grids();
    }
  }

  [[nodiscard]] static bool can_accept(PortId /*ingress*/) { return true; }

  void inject(PortId ingress, PortId dest, Word data, std::uint32_t seq,
              Cycle inj) {
    slots_[ingress] = Flit{data, static_cast<std::uint32_t>(inj), seq,
                           static_cast<std::uint8_t>(dest)};
    occ_ |= std::uint64_t{1} << ingress;
  }

  template <bool kMeasured, class Deliver>
  void tick(Cycle /*cycle*/, Accum& acc, Deliver&& deliver) {
    double wire_acc = 0.0;
    double switch_acc = 0.0;
    if constexpr (kMeasured) {
      wire_acc = acc.wire_j;
      switch_acc = acc.switch_j;
    }
    for_each_set_bit(occ_, 0, [&](unsigned p) {
      const Flit& f = slots_[p];
      // Wire polarity always advances (warmup included); when measuring,
      // the switch add, then one wire add (the crossbar sums its row and
      // column terms first, as the scalar tick does).
      [[maybe_unused]] const int row_flips =
          toggled_bits(row_last_[p], f.data);
      row_last_[p] = f.data;
      [[maybe_unused]] int col_flips = 0;
      if constexpr (kXbar) {
        col_flips = toggled_bits(col_last_[f.dest], f.data);
        col_last_[f.dest] = f.data;
      }
      if constexpr (kMeasured) {
        switch_acc += switch_word_j_;
        if constexpr (kXbar) {
          wire_acc += wires_.flip_energy_j(row_flips, row_len_) +
                      wires_.flip_energy_j(col_flips, col_len_);
        } else {
          wire_acc += wires_.flip_energy_j(row_flips, row_len_);
        }
      }
      deliver(f, f.dest);
    });
    occ_ = 0;
    if constexpr (kMeasured) {
      acc.wire_j = wire_acc;
      acc.switch_j = switch_acc;
    }
  }
};

/// Batcher-Banyan in lockstep: every cycle's cohort (the words injected
/// that cycle) crosses one stage per tick, so stage k always holds the
/// cohort injected k ticks ago and no stage ever stalls. Why no stage
/// stalls (tests/test_fabric_batcher.cpp checks both halves):
///  - Both fronts keep an egress locked from grant to tail injection, so a
///    cohort's words have distinct destinations.
///  - The bitonic sorter, idle rows keyed +infinity, leaves such a cohort
///    sorted by destination in rows 0..m-1: a comparator network that
///    sorts every 0-1 input sorts every input.
///  - The MSB-first banyan then routes it without two words of one switch
///    asking for one output. Two words that meet at a span-2^b stage agree
///    on their destinations' bits above b (already routed) and on their
///    sorted rows' bits below b (not yet routed), so the rows lie at least
///    2^b apart, so do the sorted destinations, and bit b must differ.
/// The last stage delivers everything, so by induction every stage drains
/// before its predecessor moves: the reference's stall checks never fire,
/// and its same-packet rule never applies (a cohort holds at most one word
/// per ingress). Only the reference BatcherBanyanFabric keeps them.
///
/// A cohort lives in one of S ring slots (S = stage count) as packed rows;
/// each switch permutes its two rows in place, branch-free, and adds its
/// energy in the reference's per-accumulator order: stages downstream
/// first, switches ascending, in sorter stages the word from r0 first, in
/// banyan stages (and deliveries) the row the cycle's parity favours
/// first. An idle row adds +0.0 wire and switch energy, which leaves every
/// accumulator (never -0.0) bitwise unchanged. The scalar per-stage
/// banyan_parity_ toggles once per tick unconditionally, so it equals
/// cycle & 1 and needs no storage.
struct BatcherStages {
  static constexpr bool kFixedLatency = true;  ///< sorter+banyan, no buffers

  /// Row word: bits 0-31 the data, 32-37 the injecting ingress, 48-53 the
  /// destination key. An idle row is kIdle: it compares above every live
  /// row, and row >> 57 is kAbsent for it and 0 for a live row.
  static constexpr std::uint64_t kIdle = std::uint64_t{1} << 63;
  static constexpr unsigned kSrcShift = 32;
  static constexpr unsigned kKeyShift = 48;
  static constexpr unsigned kAbsent = 64;

  /// What delivery reads, kept per (slot, ingress) outside the rows.
  struct Flit {
    std::uint32_t inj = 0;  ///< head-injection cycle stamp
    std::uint32_t seq = 0;
  };
  static_assert(sizeof(std::uint64_t) + sizeof(Flit) == kBatcherRowBytes);

  struct Stage {
    bool sorter = false;
    unsigned span_log2 = 0;
    std::uint64_t r0_rows = 0;  ///< each switch's r0: bit span_log2 clear
    std::uint64_t asc = 0;      ///< sorter: bit row = bitonic_ascending
    /// Switch energy by the switch's idle rows: both words move, one, none.
    double act[3] = {};
    /// The same doubles flip_energy_j(flips, 4 * 2^span) returns (Eq. 6)
    /// at flips 0..32, and +0.0 at kAbsent.
    double flip_j[kAbsent + 1] = {};
  };

  unsigned n_ = 0;
  unsigned n_stages_ = 0;
  unsigned head_ = 0;  ///< slot the current cycle's cohort is injected into
  std::vector<Stage> stages_;
  std::vector<std::uint64_t> rows_;  // [slot * n_ + row]
  std::vector<Flit> meta_;           // [slot * n_ + ingress]
  std::vector<std::uint64_t> occ_;   // [slot], bit row = row holds a word
  std::vector<Word> wire_last_;      // [stage * n_ + row]

  void init(const SimConfig& c) {
    n_ = c.ports;
    const WireEnergyModel wires{c.tech};
    for (const BitonicStage& s : bitonic_schedule(n_)) {
      Stage spec;
      spec.sorter = true;
      spec.span_log2 = s.span_log2;
      for (unsigned row = 0; row < n_; ++row) {
        if (bitonic_ascending(row, s.phase)) {
          spec.asc |= std::uint64_t{1} << row;
        }
      }
      stages_.push_back(spec);
    }
    // Banyan section MSB-first, as the scalar constructor.
    for (unsigned s = log2_exact(n_); s-- > 0;) {
      Stage spec;
      spec.span_log2 = s;
      stages_.push_back(spec);
    }
    for (Stage& spec : stages_) {
      for (unsigned row = 0; row < n_; ++row) {
        if (bit_of(row, spec.span_log2) == 0) {
          spec.r0_rows |= std::uint64_t{1} << row;
        }
      }
      const auto& lut =
          spec.sorter ? c.switches.sorter2x2 : c.switches.banyan2x2;
      spec.act[0] = lut.energy_per_bit(0b11u) * c.tech.bus_width;
      spec.act[1] = lut.energy_per_bit(0b01u) * c.tech.bus_width;
      const double grids = 4.0 * static_cast<double>(1u << spec.span_log2);
      for (unsigned f = 0; f <= 32; ++f) {
        spec.flip_j[f] = wires.flip_energy_j(static_cast<int>(f), grids);
      }
    }
    n_stages_ = static_cast<unsigned>(stages_.size());
    rows_.assign(std::size_t{n_stages_} * n_, kIdle);
    meta_.assign(std::size_t{n_stages_} * n_, Flit{});
    occ_.assign(n_stages_, 0);
    wire_last_.assign(std::size_t{n_stages_} * n_, 0);
  }

  /// Stage 0 drains every tick, so a word is always accepted.
  [[nodiscard]] static bool can_accept(PortId /*ingress*/) { return true; }

  void inject(PortId ingress, PortId dest, Word data, std::uint32_t seq,
              Cycle inj) {
    const std::size_t at = std::size_t{head_} * n_ + ingress;
    rows_[at] = data | (std::uint64_t{ingress} << kSrcShift) |
                (std::uint64_t{dest} << kKeyShift);
    meta_[at] = Flit{static_cast<std::uint32_t>(inj), seq};
    occ_[head_] |= std::uint64_t{1} << ingress;
  }

  template <bool kMeasured, class Deliver>
  void tick(Cycle cycle, Accum& acc, Deliver&& deliver) {
    const std::uint64_t parity = cycle & 1;
    // Energy accumulators live in registers for the whole tick (the adds
    // themselves keep the scalar order, so the totals stay bit-identical).
    double wire_acc = 0.0;
    double switch_acc = 0.0;
    if constexpr (kMeasured) {
      wire_acc = acc.wire_j;
      switch_acc = acc.switch_j;
    }
    // Downstream stages first, as the scalar tick; stage k holds the cohort
    // injected k ticks ago, in slot head_ - k.
    for (unsigned k = n_stages_; k-- > 0;) {
      const unsigned slot = head_ >= k ? head_ - k : head_ + n_stages_ - k;
      if (occ_[slot] == 0) continue;  // an empty cohort moves nothing
      const Stage& spec = stages_[k];
      std::uint64_t* const rows = rows_.data() + std::size_t{slot} * n_;
      Word* const wl = wire_last_.data() + std::size_t{k} * n_;
      if (spec.sorter) {
        cross<true, false, kMeasured>(spec, rows, occ_[slot], wl, 0,
                                      wire_acc, switch_acc, deliver,
                                      nullptr);
      } else if (k + 1 < n_stages_) {
        cross<false, false, kMeasured>(spec, rows, occ_[slot], wl, parity,
                                       wire_acc, switch_acc, deliver,
                                       nullptr);
      } else {
        cross<false, true, kMeasured>(
            spec, rows, occ_[slot], wl, parity, wire_acc, switch_acc,
            deliver, meta_.data() + std::size_t{slot} * n_);
      }
    }
    head_ = head_ + 1 == n_stages_ ? 0 : head_ + 1;
    if constexpr (kMeasured) {
      acc.wire_j = wire_acc;
      acc.switch_j = switch_acc;
    }
  }

  /// One stage of one cohort: every switch that holds a word permutes its
  /// two rows in place (an idle switch would add only +0.0). The word from
  /// row r0 | first_bias << b adds (and delivers) first: first_bias is the
  /// cycle's parity in banyan stages and 0 in sorter stages. `occ` follows
  /// the rows; the last stage delivers and clears the slot.
  template <bool kSorter, bool kLast, bool kMeasured, class Deliver>
  void cross(const Stage& spec, std::uint64_t* rows, std::uint64_t& occ,
             Word* wl, std::uint64_t first_bias, double& wire_acc,
             double& switch_acc, Deliver& deliver, const Flit* meta) {
    const unsigned b = spec.span_log2;
    // Wire polarity advances only under a word; an idle row reads kAbsent.
    const auto charge_wire = [&](unsigned row, std::uint64_t w) {
      const auto keep = static_cast<Word>((w >> 63) - 1);
      const Word flipped = (wl[row] ^ static_cast<Word>(w)) & keep;
      wl[row] ^= flipped;
      return spec.flip_j[popcount(flipped) + (w >> 57)];
    };
    const unsigned span = 1u << b;
    std::uint64_t moved = 0;  // banyan: rows a lone word entered or left
    const std::uint64_t walk = spec.r0_rows & (occ | occ >> span);
    for_each_set_bit(walk, 0, [&](unsigned r0) {
      const unsigned r1 = r0 | span;
      const std::uint64_t w0 = rows[r0];
      const std::uint64_t w1 = rows[r1];
      std::uint64_t swap = 0;
      if constexpr (kSorter) {
        // Compare-exchange on the keys (data and src never decide: live
        // keys are distinct, and two idle rows are equal): a descending
        // switch compares its rows the other way round.
        const std::uint64_t down = ((spec.asc >> r0) & 1) ^ 1;
        const std::uint64_t lhs = w0 ^ ((w0 ^ w1) & (0 - down));
        swap = lhs > (lhs ^ w0 ^ w1);
      } else {
        // Destination bit b routes: r0's word crosses on a 1, a lone r1
        // word crosses on a 0 (an idle key has bit b clear).
        assert(((w0 ^ w1) >> (kKeyShift + b) & 1) != 0 || w0 == kIdle ||
               w1 == kIdle);
        swap = ((w0 >> (kKeyShift + b)) |
                (~w1 >> 63 & ~w1 >> (kKeyShift + b))) &
               1;
      }
      // The word that adds first leaves on row_a, the other on row_b.
      const std::uint64_t diff = w0 ^ w1;
      const std::uint64_t word_a = w0 ^ (diff & (0 - first_bias));
      const unsigned row_a =
          r0 | static_cast<unsigned>((swap ^ first_bias) << b);
      const unsigned row_b = row_a ^ span;
      const double e_a = charge_wire(row_a, word_a);
      const double e_b = charge_wire(row_b, word_a ^ diff);
      if constexpr (kMeasured) {
        wire_acc += e_a;
        wire_acc += e_b;
        switch_acc += spec.act[(w0 >> 63) + (w1 >> 63)];
      } else {
        (void)e_a;
        (void)e_b;
      }
      if constexpr (kLast) {
        // Span 0: a word leaves on the row of its destination.
        if (word_a != kIdle) {
          deliver(meta[(word_a >> kSrcShift) & 63], row_a);
        }
        if ((word_a ^ diff) != kIdle) {
          deliver(meta[((word_a ^ diff) >> kSrcShift) & 63], row_b);
        }
        rows[r0] = kIdle;
        rows[r1] = kIdle;
      } else {
        rows[row_a] = word_a;
        rows[row_b] = word_a ^ diff;
        if constexpr (!kSorter) {
          const std::uint64_t lone_swap = swap & (diff >> 63);  // one idle
          moved |= (lone_swap << r0) | (lone_swap << r1);
        }
      }
    });
    if constexpr (kSorter) {
      // The stage's occupancy is the 0-1 compare-exchange of the old one:
      // a lone word leaves on the low side (r0 if the switch ascends).
      const std::uint64_t lo = occ & spec.r0_rows;
      const std::uint64_t hi = (occ >> span) & spec.r0_rows;
      const std::uint64_t any = lo | hi;
      const std::uint64_t both = lo & hi;
      occ = ((spec.asc & any) | (~spec.asc & both)) |
            (((spec.asc & both) | (~spec.asc & any)) << span);
    } else if constexpr (kLast) {
      occ = 0;
    } else {
      occ ^= moved;
    }
  }
};

/// Banyan staged fabric, decided a stage at a time in mask words. A stage
/// keeps three row masks — link occupancy, bit `stage` of each link word's
/// destination, and which node-FIFO rings are nonempty — beside its link
/// words and rings. A node FIFO is two rings, one per switch output: ring
/// (stage, o) holds the switch's buffered words bound for output row o in
/// FIFO order, so its front is the word the reference's "oldest buffered
/// word for this output" scan picks. The reference's per-switch input
/// priority toggles every tick, so it equals cycle & 1.
///
/// Stages run downstream first, so the next stage's occupancy is final
/// when a stage decides all its switches at once. A first walk makes the
/// moves in the reference's order (switches ascending, output r0 before
/// r1), so wire and switch adds and deliveries land as there; a second
/// buffers or stalls the losers. After the tick's DRAM refresh every buffer
/// add is the same double, access_j_, so a stage's READs going before its
/// WRITEs leaves the sum unchanged. The buffered/SRAM/stall counters
/// accumulate across warmup (the reference reports window deltas).
struct BanyanStages {
  static constexpr bool kFixedLatency = false;  ///< queueing varies latency

  /// 16-byte link/FIFO word; dest and row fit a byte each (N <= 64).
  struct Flit {
    Word data = 0;
    std::uint32_t inj = 0;  ///< head-injection cycle stamp
    std::uint32_t seq = 0;
    std::uint8_t dest = 0;
    std::uint8_t row = 0;   ///< input row at its stage: straight or cross
    std::uint8_t sram = 0;  ///< buffered past the skid slots (READ charge)
  };
  static_assert(sizeof(Flit) == kStageFlitBytes);

  /// A stage's row masks and wire-energy tables.
  struct Stage {
    std::uint64_t occ = 0;   ///< link holds a word
    std::uint64_t dbit = 0;  ///< under occ: destination bit `stage`
    std::uint64_t rnz = 0;   ///< ring (stage, row) is nonempty
    std::uint64_t hi = 0;    ///< rows with bit `stage` set: each switch's r1
    /// The doubles flip_energy_j(flips, len) returns (Eq. 6) at flips
    /// 0..32, for the straight link [0] and the stage's crossing link [1].
    double flip_j[2][33] = {};
  };

  struct Ring {
    std::uint32_t head = 0, size = 0;
  };

  unsigned n_ = 0;
  unsigned stages_ = 0;
  std::uint64_t all_ = 0;   ///< every row
  std::uint32_t cap_ = 0;   ///< buffer_words_per_switch
  std::uint32_t skid_ = 0;  ///< buffer_skid_words
  bool charge_rw_ = false;
  bool dram_ = false;
  double access_j_ = 0.0;   ///< SRAM access energy per word
  double refresh_j_ = 0.0;  ///< DRAM refresh energy per cycle (Eq. 1 E_ref)
  double act_[3] = {};      ///< switch energy by words moved (1 or 2)
  std::vector<Stage> stage_;
  std::vector<Flit> links_;      // [stage * n_ + row]
  std::vector<Word> wire_last_;  // [stage * n_ + row]
  std::vector<Flit> fifo_;       // [(stage * n_ + o) * cap_ + pos]
  std::vector<Ring> rings_;      // [stage * n_ + o]

  void init(const SimConfig& c) {
    n_ = c.ports;
    stages_ = log2_exact(n_);
    all_ = n_ == 64 ? ~std::uint64_t{0} : low_mask(n_);
    cap_ = static_cast<std::uint32_t>(c.buffer_words_per_switch);
    skid_ = static_cast<std::uint32_t>(c.buffer_skid_words);
    charge_rw_ = c.charge_buffer_read_and_write;
    dram_ = c.dram_buffers;
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
    act_[1] = c.switches.banyan2x2.energy_per_bit(0b01u) * c.tech.bus_width;
    act_[2] = c.switches.banyan2x2.energy_per_bit(0b11u) * c.tech.bus_width;
    const WireEnergyModel wires{c.tech};
    const thompson::BanyanEmbedding embedding{c.ports};
    stage_.assign(stages_, Stage{});
    for (unsigned s = 0; s < stages_; ++s) {
      Stage& st = stage_[s];
      for (unsigned row = 0; row < n_; ++row) {
        st.hi |= std::uint64_t{bit_of(row, s)} << row;
      }
      const double len[2] = {embedding.straight_link_grids(),
                             embedding.cross_link_grids(s)};
      for (unsigned cross = 0; cross < 2; ++cross) {
        for (unsigned f = 0; f <= 32; ++f) {
          st.flip_j[cross][f] =
              wires.flip_energy_j(static_cast<int>(f), len[cross]);
        }
      }
    }
    links_.assign(std::size_t{stages_} * n_, Flit{});
    wire_last_.assign(std::size_t{stages_} * n_, 0);
    fifo_.assign(std::size_t{stages_} * n_ * cap_, Flit{});
    rings_.assign(std::size_t{stages_} * n_, Ring{});
  }

  [[nodiscard]] bool can_accept(PortId ingress) const {
    return ((stage_[0].occ >> ingress) & 1) == 0;
  }

  void inject(PortId ingress, PortId dest, Word data, std::uint32_t seq,
              Cycle inj) {
    links_[ingress] =
        Flit{data, static_cast<std::uint32_t>(inj), seq,
             static_cast<std::uint8_t>(dest),
             static_cast<std::uint8_t>(ingress), 0};
    const std::uint64_t bit = std::uint64_t{1} << ingress;
    stage_[0].occ |= bit;
    stage_[0].dbit =
        (stage_[0].dbit & ~bit) | (std::uint64_t{dest & 1u} << ingress);
  }

  template <bool kMeasured, class Deliver>
  void tick(Cycle cycle, Accum& acc, Deliver&& deliver) {
    // Register-held energy accumulators, as in the Batcher-Banyan tick:
    // same adds in the same order, written back once.
    double wire_acc = 0.0, switch_acc = 0.0, buffer_acc = 0.0;
    if constexpr (kMeasured) {
      wire_acc = acc.wire_j;
      switch_acc = acc.switch_j;
      buffer_acc = acc.buffer_j;
      if (dram_) buffer_acc += refresh_j_;
    }
    const bool parity = (cycle & 1) != 0;  // every switch's input priority
    for (unsigned s = stages_; s-- > 0;) {
      Stage& st = stage_[s];
      const std::uint64_t occ = st.occ;
      if ((occ | st.rnz) == 0) continue;  // no word at any switch
      const bool last = s + 1 == stages_;
      Stage* const next = last ? nullptr : &stage_[s + 1];
      const unsigned span = 1u << s;
      const std::uint64_t hi = st.hi;
      const std::uint64_t lo = all_ & ~hi;
      const auto pair_of = [&](std::uint64_t m) {  // bit r -> bit r ^ span
        return ((m & lo) << span) | ((m & hi) >> span);
      };
      // Every decision by output row o: a free output pops its ring if the
      // ring holds a word, else takes the input on its own row (straight)
      // or on the partner row (cross) heading to it; when both head there,
      // the cycle's priority row wins (r0 on even cycles), which is the
      // straight input at r0 outputs and the cross input at r1 outputs.
      const std::uint64_t free = last ? all_ : all_ & ~next->occ;
      const std::uint64_t pop = free & st.rnz;
      const std::uint64_t open = free & ~st.rnz;
      const std::uint64_t crossing = occ & (st.dbit ^ hi);  // by input row
      const std::uint64_t straight = occ & ~crossing;
      const std::uint64_t cross = pair_of(crossing);
      const std::uint64_t pref = parity ? hi : lo;
      const std::uint64_t take_s = open & straight & (pref | ~cross);
      const std::uint64_t take_c = open & cross & ~take_s;
      const std::uint64_t moves = pop | take_s | take_c;
      const std::uint64_t losers = occ & ~(take_s | pair_of(take_c));

      Flit* const links = links_.data() + std::size_t{s} * n_;
      Word* const wl = wire_last_.data() + std::size_t{s} * n_;
      Ring* const rings = rings_.data() + std::size_t{s} * n_;
      Flit* const fifo = fifo_.data() + std::size_t{s} * n_ * cap_;
      std::uint64_t rnz = st.rnz;

      // Walk 1: every move and switch add, in switch order.
      assert(last || (moves & next->occ) == 0);  // only onto free rows
      std::uint64_t next_dbit = last ? 0 : next->dbit;
      const auto move = [&](unsigned o) {
        Flit f;
        if ((pop >> o) & 1) {
          Ring& ring = rings[o];
          assert(ring.size != 0);
          f = fifo[std::size_t{o} * cap_ + ring.head];
          if constexpr (kMeasured) {
            if (f.sram != 0 && charge_rw_) buffer_acc += access_j_;  // READ
          }
          if (++ring.head == cap_) ring.head = 0;
          if (--ring.size == 0) rnz &= ~(std::uint64_t{1} << o);
        } else {
          f = links[o ^ (static_cast<unsigned>((take_c >> o) & 1) << s)];
        }
        if constexpr (kMeasured) {
          wire_acc += st.flip_j[(f.row ^ o) >> s][popcount(wl[o] ^ f.data)];
        }
        wl[o] = f.data;
        if (last) {
          deliver(f, static_cast<PortId>(o));
        } else {
          f.row = static_cast<std::uint8_t>(o);
          links[n_ + o] = f;  // stage + 1 plane is contiguous
          next_dbit ^= (((next_dbit >> o) ^ (f.dest >> (s + 1))) & 1) << o;
        }
      };
      // Switches ascend with their r0 row, so walk the r0 rows of switches
      // that move a word.
      const std::uint64_t up = moves >> span;  // bit r0: output r1 moves
      for_each_set_bit(lo & (moves | up), 0, [&](unsigned r0) {
        const unsigned m0 = (moves >> r0) & 1, m1 = (up >> r0) & 1;
        if (m0) move(r0);
        if (m1) move(r0 | span);
        if constexpr (kMeasured) switch_acc += act_[m0 + m1];
      });
      if (!last) {
        next->occ |= moves;
        next->dbit = next_dbit;
      }

      // Walk 2, rows ascending (only r0 before r1 within a switch matters):
      // each loser joins its switch's FIFO, in the ring of the output it
      // heads to, or stalls on its link when the FIFO is full.
      std::uint64_t stalled = 0;
      for_each_set_bit(losers, 0, [&](unsigned in) {
        const unsigned r0 = in & ~span;
        const std::uint32_t held = rings[r0].size + rings[r0 | span].size;
        if (held >= cap_) {
          ++acc.stalls;
          stalled |= std::uint64_t{1} << in;
          return;
        }
        const bool in_sram = held >= skid_;
        if (in_sram) {
          if constexpr (kMeasured) buffer_acc += access_j_;  // the WRITE
          ++acc.sram;
        }
        ++acc.buffered;
        const unsigned o =
            r0 | (static_cast<unsigned>((st.dbit >> in) & 1) << s);
        Ring& ring = rings[o];
        std::uint32_t tail = ring.head + ring.size;
        if (tail >= cap_) tail -= cap_;
        Flit& slot = fifo[std::size_t{o} * cap_ + tail];
        slot = links[in];
        slot.sram = in_sram ? 1 : 0;
        ++ring.size;
        assert(rings[r0].size + rings[r0 | span].size <= cap_);
        rnz |= std::uint64_t{1} << o;
      });
      st.occ = stalled;
      st.rnz = rnz;
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
/// router's shared FIFO becomes five rings, one per output (as banyan's
/// node FIFOs, with the in-SRAM flag in the Flit), and one per-router
/// count against buffer_words_per_switch. A word joins the ring of the
/// output it routes to, in FIFO order, so the front of ring o is exactly
/// the word the scalar's "oldest buffered word headed for o" scan returns.
/// A byte table replaces route(). The scalar rr_[r] is bumped once per
/// tick for every router, so it equals the tick count, cycle + 1, and
/// needs no storage.
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

  /// 16-byte register/FIFO word; dest fits a byte (N <= 64).
  struct Flit {
    Word data = 0;
    std::uint32_t inj = 0;  ///< head-injection cycle stamp
    std::uint32_t seq = 0;
    std::uint8_t dest = 0;
    std::uint8_t sram = 0;  ///< buffered past the skid slots (READ charge)
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
  std::vector<std::uint32_t> fifo_head_;   // [ring]
  std::vector<std::uint32_t> fifo_size_;   // [ring]
  std::vector<std::uint32_t> fifo_count_;  // [router], all five rings
  std::uint64_t fifo_any_ = 0;             // bit r = fifo_count_[r] != 0

  void init(const SimConfig& c) {
    n_ = c.ports;
    unsigned k = 2;  // validate() admits only k x k meshes
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
              Cycle inj) {
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
          if (mover.sram != 0 && charge_rw_) {
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
        Flit& slot = fifo_flit_[ring * cap_ + tail];
        slot = word;
        slot.sram = in_sram ? 1 : 0;
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

/// The engine: an ingress front feeding a staged fabric (SingleHopStage,
/// BatcherStages, BanyanStages or MeshStages) through the scalar routers'
/// generic inject-then-tick path — per-port can_accept back-pressure,
/// fabric tick after all injections, and (for variable-latency fabrics)
/// egress unlocks collected at tail delivery and applied after the tick.
template <class Fab, class FrontT>
struct Engine {
  unsigned pw_ = 0;
  Fab fab_;
  FrontT front_;
  Accum acc_;

  void init(const SimConfig& c) {
    pw_ = c.packet_words;
    fab_.init(c);
    front_.init(c);
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
                  front_.words_[idx], pw_ - left, front_.str_start_[p]);
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
  return eng.result(c);
}

}  // namespace

/// Dispatches (architecture x scheme) to the monomorphized engine. The
/// caller has already run validate(), so every reachable cell has an
/// engine.
SimResult simulate(const SimConfig& config) {
  const bool voq = config.scheme == RouterScheme::kVoq;
  switch (config.arch) {
    case Architecture::kCrossbar:
      return voq ? run<Engine<SingleHopStage<Architecture::kCrossbar>,
                              VoqFront>>(config)
                 : run<Engine<SingleHopStage<Architecture::kCrossbar>,
                              FifoFront>>(config);
    case Architecture::kFullyConnected:
      return voq ? run<Engine<SingleHopStage<Architecture::kFullyConnected>,
                              VoqFront>>(config)
                 : run<Engine<SingleHopStage<Architecture::kFullyConnected>,
                              FifoFront>>(config);
    case Architecture::kBatcherBanyan:
      return voq ? run<Engine<BatcherStages, VoqFront>>(config)
                 : run<Engine<BatcherStages, FifoFront>>(config);
    case Architecture::kBanyan:
      return voq ? run<Engine<BanyanStages, VoqFront>>(config)
                 : run<Engine<BanyanStages, FifoFront>>(config);
    case Architecture::kMesh:
      return voq ? run<Engine<MeshStages, VoqFront>>(config)
                 : run<Engine<MeshStages, FifoFront>>(config);
  }
  return SimResult{};  // unreachable behind validate()
}

}  // namespace sfab::detail
