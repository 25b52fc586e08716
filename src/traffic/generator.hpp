// Traffic generation: arrival processes x destination patterns.
//
// The paper drives the router with random-destination TCP/IP flows whose
// throughput is set by adjusting packet generation intervals. We generalize
// to pluggable strategies so ablations can compare patterns:
//   arrivals: Bernoulli (memoryless) and bursty (2-state Markov on/off)
//   destinations: uniform, fixed permutation, hotspot
// The reference routers poll one TrafficGenerator per cycle; packet words
// are written straight into the caller's PacketArena.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "traffic/packet.hpp"

namespace sfab {

/// Chooses the egress port of a new packet.
class DestinationPattern {
 public:
  virtual ~DestinationPattern() = default;
  [[nodiscard]] virtual PortId pick(PortId source, Rng& rng) = 0;
};

/// Uniform over all ports except the source (a router does not switch a
/// packet back out of its ingress).
class UniformPattern final : public DestinationPattern {
 public:
  explicit UniformPattern(unsigned ports);
  [[nodiscard]] PortId pick(PortId source, Rng& rng) override;

 private:
  unsigned ports_;
};

/// Fixed permutation: every source always targets perm[source]. Models
/// provisioned circuit-like flows; contention-free at the arbiter.
class PermutationPattern final : public DestinationPattern {
 public:
  explicit PermutationPattern(std::vector<PortId> perm);
  /// Bit-reversal permutation on `ports` (a power of two) — the classic
  /// adversarial pattern for banyan-class networks.
  [[nodiscard]] static PermutationPattern bit_reversal(unsigned ports);
  [[nodiscard]] PortId pick(PortId source, Rng& rng) override;

 private:
  std::vector<PortId> perm_;
};

/// With probability `hot_fraction` the packet goes to `hot_port`, otherwise
/// uniform over the rest.
class HotspotPattern final : public DestinationPattern {
 public:
  HotspotPattern(unsigned ports, PortId hot_port, double hot_fraction);
  [[nodiscard]] PortId pick(PortId source, Rng& rng) override;

 private:
  unsigned ports_;
  PortId hot_port_;
  double hot_fraction_;
};

/// Decides, per port per cycle, whether a new packet arrives.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// `port` indexes per-port state; `rng` is the caller's stream.
  [[nodiscard]] virtual bool arrives(PortId port, Rng& rng) = 0;
  /// Long-run packet arrivals per cycle per port.
  [[nodiscard]] virtual double mean_rate() const = 0;
};

/// Memoryless arrivals at `packets_per_cycle`.
class BernoulliArrival final : public ArrivalProcess {
 public:
  explicit BernoulliArrival(double packets_per_cycle);
  [[nodiscard]] bool arrives(PortId port, Rng& rng) override;
  [[nodiscard]] double mean_rate() const override { return rate_; }

 private:
  double rate_;
};

/// Two-state Markov on/off process: in ON, packets arrive at `on_rate`;
/// state flips with the given per-cycle transition probabilities. Produces
/// the bursty arrivals real packet traces show.
class BurstyArrival final : public ArrivalProcess {
 public:
  BurstyArrival(unsigned ports, double on_rate, double p_on_to_off,
                double p_off_to_on);
  [[nodiscard]] bool arrives(PortId port, Rng& rng) override;
  [[nodiscard]] double mean_rate() const override;

  /// Mean burst length in cycles (1 / p_on_to_off).
  [[nodiscard]] double mean_burst_cycles() const { return 1.0 / p_on_off_; }

 private:
  double on_rate_;
  double p_on_off_;
  double p_off_on_;
  std::vector<char> state_on_;
};

/// Full generator: one arrival process + one destination pattern + one
/// packet factory, polled once per ingress port per cycle.
class TrafficGenerator {
 public:
  TrafficGenerator(unsigned ports, std::unique_ptr<ArrivalProcess> arrivals,
                   std::unique_ptr<DestinationPattern> destinations,
                   PacketFactory factory, std::uint64_t seed);

  /// One poll per port per cycle; returns a packet when one arrives, its
  /// words allocated from and filled into `arena`. The caller owns the
  /// handle and releases it back to `arena` on drop or tail injection.
  [[nodiscard]] std::optional<Packet> poll(PortId source, Cycle now,
                                           PacketArena& arena);

  /// Polls every port for cycle `now` in ascending port order, appending
  /// the arrivals to `out` without clearing it.
  void poll_cycle(Cycle now, PacketArena& arena, std::vector<Packet>& out);

  /// Offered load in words per cycle per port implied by the arrival rate
  /// and packet length (can exceed 1; the input queue then saturates).
  [[nodiscard]] double offered_load_words() const;

  [[nodiscard]] unsigned ports() const noexcept { return ports_; }

  // --- convenience factories -------------------------------------------------

  /// The paper's workload: Bernoulli arrivals, uniform destinations, random
  /// payload. `offered_load` is in words/cycle/port (0..1 of line rate).
  [[nodiscard]] static TrafficGenerator uniform_bernoulli(
      unsigned ports, double offered_load, unsigned packet_words,
      std::uint64_t seed, PayloadKind payload = PayloadKind::kRandom);

  /// Bit-reversal permutation flows at the given load.
  [[nodiscard]] static TrafficGenerator bit_reversal_permutation(
      unsigned ports, double offered_load, unsigned packet_words,
      std::uint64_t seed, PayloadKind payload = PayloadKind::kRandom);

  /// Hotspot: `hot_fraction` of packets target `hot_port`.
  [[nodiscard]] static TrafficGenerator hotspot(
      unsigned ports, double offered_load, unsigned packet_words,
      PortId hot_port, double hot_fraction, std::uint64_t seed,
      PayloadKind payload = PayloadKind::kRandom);

  /// Bursty on/off with uniform destinations; mean load = offered_load.
  [[nodiscard]] static TrafficGenerator bursty_uniform(
      unsigned ports, double offered_load, unsigned packet_words,
      double mean_burst_cycles, std::uint64_t seed,
      PayloadKind payload = PayloadKind::kRandom);

 private:
  unsigned ports_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<DestinationPattern> destinations_;
  PacketFactory factory_;
  Rng rng_;
};

}  // namespace sfab
