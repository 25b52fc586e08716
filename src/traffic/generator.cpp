#include "traffic/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/bitops.hpp"

namespace sfab {

// --- destination patterns -----------------------------------------------------

UniformPattern::UniformPattern(unsigned ports) : ports_(ports) {
  if (ports < 2) throw std::invalid_argument("UniformPattern: ports >= 2");
}

PortId UniformPattern::pick(PortId source, Rng& rng) {
  // Uniform over the other ports: draw in [0, N-1) and skip the source.
  const auto draw = static_cast<PortId>(rng.next_below(ports_ - 1));
  return draw >= source ? draw + 1 : draw;
}

PermutationPattern::PermutationPattern(std::vector<PortId> perm)
    : perm_(std::move(perm)) {
  std::vector<char> seen(perm_.size(), 0);
  for (const PortId p : perm_) {
    if (p >= perm_.size() || seen[p]) {
      throw std::invalid_argument("PermutationPattern: not a permutation");
    }
    seen[p] = 1;
  }
}

PermutationPattern PermutationPattern::bit_reversal(unsigned ports) {
  if (ports < 2 || !is_pow2(ports)) {
    throw std::invalid_argument("bit_reversal: ports must be a power of two");
  }
  const unsigned n = log2_exact(ports);
  std::vector<PortId> perm(ports);
  for (PortId src = 0; src < ports; ++src) {
    PortId rev = 0;
    for (unsigned b = 0; b < n; ++b) rev |= bit_of(src, b) << (n - 1 - b);
    perm[src] = rev;
  }
  return PermutationPattern{std::move(perm)};
}

PortId PermutationPattern::pick(PortId source, Rng& /*rng*/) {
  if (source >= perm_.size()) {
    throw std::out_of_range("PermutationPattern: bad source");
  }
  return perm_[source];
}

HotspotPattern::HotspotPattern(unsigned ports, PortId hot_port,
                               double hot_fraction)
    : ports_(ports), hot_port_(hot_port), hot_fraction_(hot_fraction) {
  if (ports < 2) throw std::invalid_argument("HotspotPattern: ports >= 2");
  if (hot_port >= ports) throw std::invalid_argument("HotspotPattern: bad port");
  if (!(hot_fraction >= 0.0 && hot_fraction <= 1.0)) {
    throw std::invalid_argument("HotspotPattern: fraction in [0,1]");
  }
}

PortId HotspotPattern::pick(PortId source, Rng& rng) {
  if (source != hot_port_ && rng.next_bernoulli(hot_fraction_)) {
    return hot_port_;
  }
  UniformPattern uniform{ports_};
  return uniform.pick(source, rng);
}

// --- arrival processes ----------------------------------------------------------

BernoulliArrival::BernoulliArrival(double packets_per_cycle)
    : rate_(packets_per_cycle) {
  if (!(rate_ >= 0.0 && rate_ <= 1.0)) {
    throw std::invalid_argument("BernoulliArrival: rate in [0,1]");
  }
}

bool BernoulliArrival::arrives(PortId /*port*/, Rng& rng) {
  return rng.next_bernoulli(rate_);
}

BurstyArrival::BurstyArrival(unsigned ports, double on_rate,
                             double p_on_to_off, double p_off_to_on)
    : on_rate_(on_rate),
      p_on_off_(p_on_to_off),
      p_off_on_(p_off_to_on),
      state_on_(ports, 0) {
  if (!(on_rate >= 0.0 && on_rate <= 1.0)) {
    throw std::invalid_argument("BurstyArrival: on_rate in [0,1]");
  }
  if (!(p_on_to_off > 0.0 && p_on_to_off <= 1.0 && p_off_to_on > 0.0 &&
        p_off_to_on <= 1.0)) {
    throw std::invalid_argument("BurstyArrival: transition probs in (0,1]");
  }
}

bool BurstyArrival::arrives(PortId port, Rng& rng) {
  if (port >= state_on_.size()) throw std::out_of_range("BurstyArrival: port");
  // Update the Markov state, then draw within the current state.
  if (state_on_[port]) {
    if (rng.next_bernoulli(p_on_off_)) state_on_[port] = 0;
  } else {
    if (rng.next_bernoulli(p_off_on_)) state_on_[port] = 1;
  }
  return state_on_[port] != 0 && rng.next_bernoulli(on_rate_);
}

double BurstyArrival::mean_rate() const {
  const double p_on = p_off_on_ / (p_off_on_ + p_on_off_);
  return p_on * on_rate_;
}

// --- TrafficGenerator ---------------------------------------------------------

TrafficGenerator::TrafficGenerator(
    unsigned ports, std::unique_ptr<ArrivalProcess> arrivals,
    std::unique_ptr<DestinationPattern> destinations, PacketFactory factory,
    std::uint64_t seed)
    : ports_(ports),
      arrivals_(std::move(arrivals)),
      destinations_(std::move(destinations)),
      factory_(std::move(factory)),
      rng_(seed) {
  if (ports < 2) throw std::invalid_argument("TrafficGenerator: ports >= 2");
  if (!arrivals_ || !destinations_) {
    throw std::invalid_argument("TrafficGenerator: null strategy");
  }
}

std::optional<Packet> TrafficGenerator::poll(PortId source, Cycle now,
                                             PacketArena& arena) {
  if (source >= ports_) throw std::out_of_range("TrafficGenerator: port");
  if (!arrivals_->arrives(source, rng_)) return std::nullopt;
  const PortId dest = destinations_->pick(source, rng_);
  return factory_.make(arena, source, dest, now);
}

void TrafficGenerator::poll_cycle(Cycle now, PacketArena& arena,
                                  std::vector<Packet>& out) {
  for (PortId p = 0; p < ports_; ++p) {
    if (const auto packet = poll(p, now, arena)) out.push_back(*packet);
  }
}

double TrafficGenerator::offered_load_words() const {
  return arrivals_->mean_rate() * factory_.total_words();
}

TrafficGenerator TrafficGenerator::uniform_bernoulli(unsigned ports,
                                                     double offered_load,
                                                     unsigned packet_words,
                                                     std::uint64_t seed,
                                                     PayloadKind payload) {
  return TrafficGenerator{
      ports,
      std::make_unique<BernoulliArrival>(offered_load / packet_words),
      std::make_unique<UniformPattern>(ports),
      PacketFactory{packet_words, payload, seed ^ 0xFACADEull}, seed};
}

TrafficGenerator TrafficGenerator::bit_reversal_permutation(
    unsigned ports, double offered_load, unsigned packet_words,
    std::uint64_t seed, PayloadKind payload) {
  return TrafficGenerator{
      ports,
      std::make_unique<BernoulliArrival>(offered_load / packet_words),
      std::make_unique<PermutationPattern>(
          PermutationPattern::bit_reversal(ports)),
      PacketFactory{packet_words, payload, seed ^ 0xFACADEull}, seed};
}

TrafficGenerator TrafficGenerator::hotspot(unsigned ports, double offered_load,
                                           unsigned packet_words,
                                           PortId hot_port,
                                           double hot_fraction,
                                           std::uint64_t seed,
                                           PayloadKind payload) {
  return TrafficGenerator{
      ports,
      std::make_unique<BernoulliArrival>(offered_load / packet_words),
      std::make_unique<HotspotPattern>(ports, hot_port, hot_fraction),
      PacketFactory{packet_words, payload, seed ^ 0xFACADEull}, seed};
}

TrafficGenerator TrafficGenerator::bursty_uniform(unsigned ports,
                                                  double offered_load,
                                                  unsigned packet_words,
                                                  double mean_burst_cycles,
                                                  std::uint64_t seed,
                                                  PayloadKind payload) {
  if (!(mean_burst_cycles >= 1.0)) {
    throw std::invalid_argument("bursty_uniform: burst length >= 1 cycle");
  }
  if (!(offered_load >= 0.0 && std::isfinite(offered_load))) {
    throw std::invalid_argument(
        "bursty_uniform: offered load must be finite and >= 0");
  }
  // Choose on/off probabilities so the long-run packet rate matches
  // offered_load / packet_words with a 50 % duty cycle scaled as needed.
  const double packet_rate = offered_load / packet_words;
  const double p_on_off = 1.0 / mean_burst_cycles;
  // duty * on_rate = packet_rate; pick duty = 0.5 (on_rate then <= 1 as
  // long as packet_rate <= 0.5, which holds for all paper loads).
  const double duty = 0.5;
  const double on_rate = std::min(1.0, packet_rate / duty);
  const double p_off_on = p_on_off * duty / (1.0 - duty);
  return TrafficGenerator{
      ports,
      std::make_unique<BurstyArrival>(ports, on_rate, p_on_off, p_off_on),
      std::make_unique<UniformPattern>(ports),
      PacketFactory{packet_words, payload, seed ^ 0xFACADEull}, seed};
}

}  // namespace sfab
