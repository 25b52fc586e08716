#include "sim/lane_sim.hpp"

#include <array>
#include <cmath>
#include <string>

#include "common/bitops.hpp"
#include "obs/registry.hpp"
#include "sim/lane_sim_kernels.hpp"

namespace sfab {

std::string_view to_string(LaneFallbackReason reason) noexcept {
  switch (reason) {
    case LaneFallbackReason::kNone:
      return "none";
    case LaneFallbackReason::kArch:
      return "arch";
    case LaneFallbackReason::kScheme:
      return "scheme";
    case LaneFallbackReason::kPorts:
      return "ports";
    case LaneFallbackReason::kPacketWords:
      return "packet_words";
    case LaneFallbackReason::kQueue:
      return "queue";
    case LaneFallbackReason::kMeasure:
      return "measure";
    case LaneFallbackReason::kPattern:
      return "pattern";
    case LaneFallbackReason::kRate:
      return "rate";
    case LaneFallbackReason::kFootprint:
      return "footprint";
    case LaneFallbackReason::kObserver:
      return "observer";
  }
  return "unknown";
}

LaneFallbackReason lane_sim_fallback_reason(const SimConfig& c) noexcept {
  using R = LaneFallbackReason;
  // Every scheme is covered (VOQ/iSLIP and FIFO/HOL fronts); the check
  // guards a future enum extension from running on the wrong front.
  if (c.scheme != RouterScheme::kVoq && c.scheme != RouterScheme::kFifo) {
    return R::kScheme;
  }
  switch (c.arch) {
    case Architecture::kCrossbar:
    case Architecture::kFullyConnected:
      break;
    case Architecture::kBatcherBanyan:
      if (!is_pow2(c.ports) || c.ports < 4) return R::kPorts;
      break;
    case Architecture::kBanyan:
      if (!is_pow2(c.ports)) return R::kPorts;
      break;
    case Architecture::kMesh: {
      // k x k routers for k in 2..8; the reference rejects any other
      // square and throws on a non-square.
      bool square = false;
      for (unsigned k = 2; k <= 8; ++k) square = square || k * k == c.ports;
      if (!square) return R::kPorts;
      break;
    }
    default:
      return R::kArch;  // an Architecture value this build does not know
  }
  if (c.ports < 2 || c.ports > 64) return R::kPorts;
  if (c.packet_words < 1 || c.packet_words > (1u << 20)) {
    return R::kPacketWords;
  }
  if (c.ingress_queue_packets < 1 ||
      c.ingress_queue_packets > (std::size_t{1} << 20)) {
    return R::kQueue;
  }
  if (c.measure_cycles == 0) return R::kMeasure;  // the reference throws
  // Every fabric stamps its flits with 32-bit injection cycles. Bound the
  // cycle horizon so they cannot wrap. Scalar runs at these horizons take
  // hours, so real sweeps never hit this.
  if (std::uint64_t{c.warmup_cycles} + c.measure_cycles >=
      (std::uint64_t{1} << 30)) {
    return R::kMeasure;
  }

  // Configurations the reference constructors reject run through the
  // fallback so the exception surfaces exactly as the reference throws it.
  const double rate = c.offered_load / c.packet_words;
  switch (c.pattern) {
    case TrafficPatternKind::kUniform:
      break;
    case TrafficPatternKind::kBitReversal:
      if (!is_pow2(c.ports)) return R::kPattern;
      break;
    case TrafficPatternKind::kHotspot:
      if (c.hotspot_port >= c.ports) return R::kPattern;
      if (!(c.hotspot_fraction >= 0.0 && c.hotspot_fraction <= 1.0)) {
        return R::kPattern;
      }
      break;
    case TrafficPatternKind::kBursty:
      if (!(c.mean_burst_cycles >= 1.0 &&
            std::isfinite(c.mean_burst_cycles))) {
        return R::kPattern;
      }
      break;
    default:
      return R::kPattern;
  }
  if (c.pattern == TrafficPatternKind::kBursty) {
    // Any finite rate runs (the on-rate saturates at 1); NaN and +inf go
    // to the reference, which rejects them.
    if (!(rate >= 0.0 && std::isfinite(rate))) return R::kRate;
  } else {
    if (!(rate >= 0.0 && rate <= 1.0)) return R::kRate;
  }

  // State footprint of one run, capped at ~512 MB; larger configs run on
  // the reference. The ingress front keeps capacity(+1) packet slots per
  // bank (a granted packet streams out of its slot until the tail leaves);
  // the multi-hop fabrics add their per-stage state (and, for banyan and
  // mesh, the node-FIFO ring planes). The single-hop stage's fixed 64-slot
  // arrays live in the engine object itself.
  const std::uint64_t banks = c.ports;
  const std::uint64_t slots = banks * (c.ingress_queue_packets + 1);
  std::uint64_t bytes = slots * c.packet_words * sizeof(Word) +
                        slots * 16 + banks * c.ports * 8;
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
      bytes += stages * (c.ports * (detail::kBatcherRowBytes + 4) + 576);
      break;
    }
    case Architecture::kBanyan: {
      // Per stage: a link word and a wire polarity per row, plus four row
      // masks and two 33-entry flip tables; per ring (one per stage and
      // row) its words and a head/size pair.
      if (c.buffer_words_per_switch > (1u << 20)) return R::kFootprint;
      const std::uint64_t stages = log2_exact(c.ports);
      const std::uint64_t rings = stages * c.ports;
      bytes += stages * (c.ports * (detail::kStageFlitBytes + 4) + 560) +
               rings * (std::uint64_t{c.buffer_words_per_switch} *
                            detail::kStageFlitBytes +
                        8);
      break;
    }
    case Architecture::kMesh: {
      // Five input registers, wire polarities and FIFO rings per router,
      // plus the route table and link masks.
      if (c.buffer_words_per_switch > (1u << 20)) return R::kFootprint;
      const std::uint64_t rings = std::uint64_t{c.ports} * 5;
      bytes += rings * (detail::kStageFlitBytes + 4) +
               std::uint64_t{c.ports} * (c.ports + 5) +
               rings * (std::uint64_t{c.buffer_words_per_switch} *
                            (detail::kStageFlitBytes + 1) +
                        8);
      break;
    }
  }
  if (bytes > (std::uint64_t{1} << 29)) return R::kFootprint;
  return R::kNone;
}

bool lane_sim_supported(const SimConfig& c) noexcept {
  return lane_sim_fallback_reason(c) == LaneFallbackReason::kNone;
}

SimResult run_simulation(const SimConfig& config) {
  return run_simulation(config, nullptr);
}

SimResult run_simulation(const SimConfig& config, obs::SimObserver* observer) {
  static obs::Counter& laned_passes =
      obs::Registry::global().counter("sim.lane.laned_passes");
  static obs::Counter& laned_lanes =
      obs::Registry::global().counter("sim.lane.laned_lanes");
  static obs::Counter& fallback_lanes =
      obs::Registry::global().counter("sim.lane.fallback_lanes");
  // One counter per fallback reason, created eagerly so every snapshot
  // renders the full reason vector (zeros included) and the CI smoke can
  // grep for the fields unconditionally. Indexed by the enum value.
  static const std::array<obs::Counter*, 11> fallback_reasons = [] {
    std::array<obs::Counter*, 11> counters{};
    for (const LaneFallbackReason reason :
         {LaneFallbackReason::kNone, LaneFallbackReason::kArch,
          LaneFallbackReason::kScheme, LaneFallbackReason::kPorts,
          LaneFallbackReason::kPacketWords, LaneFallbackReason::kQueue,
          LaneFallbackReason::kMeasure, LaneFallbackReason::kPattern,
          LaneFallbackReason::kRate, LaneFallbackReason::kFootprint,
          LaneFallbackReason::kObserver}) {
      counters[static_cast<std::size_t>(reason)] =
          reason == LaneFallbackReason::kNone
              ? nullptr
              : &obs::Registry::global().counter(
                    "sim.lane.fallback." +
                    std::string(to_string(reason)));
    }
    return counters;
  }();

  LaneFallbackReason reason = lane_sim_fallback_reason(config);
  if (reason == LaneFallbackReason::kNone && observer != nullptr) {
    reason = LaneFallbackReason::kObserver;
  }
  if (reason != LaneFallbackReason::kNone) {
    // Reference fallback behind the same call: identical results (and
    // identical exceptions) at reference speed. Observed runs take this
    // path too.
    fallback_lanes.increment();
    fallback_reasons[static_cast<std::size_t>(reason)]->increment();
    return run_reference_simulation(config, observer);
  }
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
