#include "sim/lane_sim.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/bitops.hpp"
#include "obs/registry.hpp"
#include "sim/lane_sim_kernels.hpp"

namespace sfab {

namespace {

/// Throws std::invalid_argument with `parts` streamed into its message.
template <class... Parts>
[[noreturn]] void reject(const Parts&... parts) {
  std::ostringstream message;
  (message << ... << parts);
  throw std::invalid_argument(message.str());
}

constexpr std::uint64_t kSizeCap = std::uint64_t{1} << 20;

}  // namespace

void validate(const SimConfig& c) {
  if (c.ports < 2) reject("ports ", c.ports, " is below 2");
  // Every port set of the engine is one 64-bit mask word.
  if (c.ports > 64) {
    reject("ports ", c.ports, " is above the packet engine's 64");
  }
  switch (c.arch) {
    case Architecture::kCrossbar:
    case Architecture::kFullyConnected:
      break;
    case Architecture::kBanyan:
      if (!is_pow2(c.ports)) {
        reject("ports ", c.ports, " is not a power of two, as banyan needs");
      }
      break;
    case Architecture::kBatcherBanyan:
      if (!is_pow2(c.ports) || c.ports < 4) {
        reject("ports ", c.ports,
               " is not a power of two >= 4, as batcher-banyan needs");
      }
      break;
    case Architecture::kMesh: {
      unsigned k = 2;
      while (k * k < c.ports) ++k;
      if (k * k != c.ports) {
        reject("ports ", c.ports, " is not a k x k square, as mesh needs");
      }
      break;
    }
    default:
      reject("arch ", static_cast<int>(c.arch), " is not an architecture");
  }
  if (c.scheme != RouterScheme::kFifo && c.scheme != RouterScheme::kVoq) {
    reject("scheme ", static_cast<int>(c.scheme), " is not a router scheme");
  }
  if (c.packet_words < 1 || c.packet_words > kSizeCap) {
    reject("packet_words ", c.packet_words, " is outside 1..2^20");
  }
  if (c.ingress_queue_packets < 1 || c.ingress_queue_packets > kSizeCap) {
    reject("ingress_queue_packets ", c.ingress_queue_packets,
           " is outside 1..2^20");
  }
  if (c.measure_cycles == 0) reject("measure_cycles 0 is below 1");
  // Every fabric stamps its words with 32-bit injection cycles; the
  // horizon keeps them from wrapping.
  constexpr Cycle kHorizon = Cycle{1} << 30;
  if (c.warmup_cycles >= kHorizon ||
      c.measure_cycles >= kHorizon - c.warmup_cycles) {
    reject(c.warmup_cycles > c.measure_cycles ? "warmup_cycles"
                                              : "measure_cycles",
           " puts the run past the 2^30-cycle horizon (warmup ",
           c.warmup_cycles, " + measure ", c.measure_cycles, " cycles)");
  }

  if (!(c.offered_load >= 0.0 && std::isfinite(c.offered_load))) {
    reject("offered_load ", c.offered_load, " is not a finite number >= 0");
  }
  switch (c.pattern) {
    case TrafficPatternKind::kUniform:
      break;
    case TrafficPatternKind::kBitReversal:
      if (!is_pow2(c.ports)) {
        reject("ports ", c.ports,
               " is not a power of two, as bit-reversal traffic needs");
      }
      break;
    case TrafficPatternKind::kHotspot:
      if (c.hotspot_port >= c.ports) {
        reject("hotspot_port ", c.hotspot_port, " is not below ports ",
               c.ports);
      }
      if (!(c.hotspot_fraction >= 0.0 && c.hotspot_fraction <= 1.0)) {
        reject("hotspot_fraction ", c.hotspot_fraction, " is outside [0, 1]");
      }
      break;
    case TrafficPatternKind::kBursty:
      if (!(c.mean_burst_cycles >= 1.0 &&
            std::isfinite(c.mean_burst_cycles))) {
        reject("mean_burst_cycles ", c.mean_burst_cycles,
               " is not a finite number >= 1");
      }
      break;
    default:
      reject("pattern ", static_cast<int>(c.pattern),
             " is not a traffic pattern");
  }
  // Every pattern but bursty draws one Bernoulli arrival per port and
  // cycle at this rate (the reference's own division); bursty caps its
  // on-rate at 1.
  if (c.pattern != TrafficPatternKind::kBursty &&
      c.offered_load / c.packet_words > 1.0) {
    reject("offered_load ", c.offered_load, " over packet_words ",
           c.packet_words,
           " is more than one packet per port per cycle; only bursty "
           "traffic accepts that");
  }

  // Node FIFOs and DRAM refresh (the other fabrics ignore both).
  if ((c.arch == Architecture::kBanyan || c.arch == Architecture::kMesh) &&
      (c.buffer_words_per_switch < 1 ||
       c.buffer_words_per_switch > kSizeCap)) {
    reject("buffer_words_per_switch ", c.buffer_words_per_switch,
           " is outside 1..2^20, as ", to_string(c.arch), " needs");
  }
  if (c.arch == Architecture::kBanyan && c.dram_buffers &&
      !(c.dram_retention_s > 0.0)) {
    reject("dram_retention_s ", c.dram_retention_s, " is not positive");
  }

  // State footprint of one run, capped at 512 MiB. The ingress front
  // keeps capacity(+1) packet slots per bank (a granted packet streams out
  // of its slot until the tail leaves); the multi-hop fabrics add their
  // per-stage state and, for banyan and mesh, the node-FIFO rings. The
  // single-hop stage's fixed 64-slot arrays live in the engine object.
  const std::uint64_t slots =
      std::uint64_t{c.ports} * (c.ingress_queue_packets + 1);
  const std::uint64_t front = slots * c.packet_words * sizeof(Word) +
                              slots * 16 + std::uint64_t{c.ports} * c.ports * 8;
  std::uint64_t fabric = 0;
  switch (c.arch) {
    case Architecture::kCrossbar:
    case Architecture::kFullyConnected:
      break;
    case Architecture::kBatcherBanyan: {
      // One ring slot per stage: rows and delivery records per slot, a
      // wire polarity per stage output, a stage spec with its flip table
      // and a slot occupancy word.
      const std::uint64_t d = log2_exact(c.ports);
      const std::uint64_t stages = d * (d + 1) / 2 + d;
      fabric = stages * (c.ports * (detail::kBatcherRowBytes + 4) + 576);
      break;
    }
    case Architecture::kBanyan: {
      // Per stage: a link word and a wire polarity per row, plus four row
      // masks and two 33-entry flip tables; per ring (one per stage and
      // row) its words and a head/size pair.
      const std::uint64_t stages = log2_exact(c.ports);
      const std::uint64_t rings = stages * c.ports;
      fabric = stages * (c.ports * (detail::kStageFlitBytes + 4) + 560) +
               rings * (std::uint64_t{c.buffer_words_per_switch} *
                            detail::kStageFlitBytes +
                        8);
      break;
    }
    case Architecture::kMesh: {
      // Five input registers, wire polarities and FIFO rings per router,
      // plus the route table and link masks.
      const std::uint64_t rings = std::uint64_t{c.ports} * 5;
      fabric = rings * (detail::kStageFlitBytes + 4) +
               std::uint64_t{c.ports} * (c.ports + 5) +
               rings * (std::uint64_t{c.buffer_words_per_switch} *
                            detail::kStageFlitBytes +
                        8);
      break;
    }
  }
  if (front + fabric > (std::uint64_t{1} << 29)) {
    if (front >= fabric) {
      reject("packet_words ", c.packet_words, " with ingress_queue_packets ",
             c.ingress_queue_packets, " puts one run's state at ",
             (front + fabric) >> 20, " MiB, above the packet engine's 512");
    }
    reject("buffer_words_per_switch ", c.buffer_words_per_switch,
           " puts one run's state at ", (front + fabric) >> 20,
           " MiB, above the packet engine's 512");
  }
}

bool lane_sim_supported(const SimConfig& c) noexcept {
  try {
    validate(c);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

SimResult run_simulation(const SimConfig& config) {
  static obs::Counter& laned_passes =
      obs::Registry::global().counter("sim.lane.laned_passes");
  static obs::Counter& laned_lanes =
      obs::Registry::global().counter("sim.lane.laned_lanes");
  validate(config);
  const SimResult result = detail::simulate(config);
  laned_passes.increment();
  laned_lanes.increment();
  return result;
}

std::string_view lane_sim_kernel_name() noexcept {
#if defined(__POPCNT__)
  return "popcnt";
#else
  return "portable";
#endif
}

}  // namespace sfab
