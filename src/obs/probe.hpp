// Cycle-resolution probes: an optional observer hook on simulation runs.
//
// A SimObserver attached to run_reference_simulation is handed a
// CycleSample every `stride()`-th cycle: ingress occupancy,
// cumulative delivered words/packets (total and per port), arbitration
// grants, fabric stalls and buffer traffic, and the cumulative energy
// split. Samples are snapshots of counters the simulation maintains
// anyway — taking one never draws from an RNG or reorders an FP
// accumulation, so an observed run is bit-identical to an unobserved
// one (enforced by tests/test_obs_identity.cpp). Only the reference
// engine takes an observer; the packet engine behind run_simulation is
// pinned bit-identical to it by tests/test_lane_sim_fuzz.
//
// ProbeRecorder is the standard observer: a compact columnar buffer
// (one vector per series plus a samples x ports matrix of per-port
// delivered words) with CSV export, feeding `sfab_cli --probe-out`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace sfab::obs {

/// One per-cycle snapshot. Counter fields are cumulative since router
/// construction; energies are joules since the last meter reset (the
/// warmup boundary zeroes them, visible as a drop in the series).
struct CycleSample {
  std::uint64_t cycle = 0;
  std::uint64_t queued_packets = 0;  ///< packets waiting at ingress
  std::uint64_t queued_words = 0;    ///< words waiting at ingress
  std::uint64_t delivered_words = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t grants = 0;        ///< arbitration grants (iSLIP matches)
  std::uint64_t stall_cycles = 0;  ///< fabric-internal stalls
  std::uint64_t buffered_words = 0;  ///< fabric buffer writes
  double switch_energy_j = 0.0;
  double buffer_energy_j = 0.0;
  double wire_energy_j = 0.0;
  /// Cumulative delivered words per egress port; `ports` entries, valid
  /// for the duration of the callback only.
  const std::uint64_t* words_per_port = nullptr;
  unsigned ports = 0;
};

/// Observer interface. Implementations must be passive: reading the
/// sample is fine, touching the simulation is not.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// Sampling stride in cycles (1 = every cycle). Read once per run()
  /// window; must be >= 1.
  [[nodiscard]] virtual std::uint64_t stride() const noexcept { return 1; }

  virtual void on_run_begin(unsigned /*ports*/) {}
  virtual void on_cycle(const CycleSample& sample) = 0;
  virtual void on_run_end(std::uint64_t /*final_cycle*/) {}
};

/// Columnar sample store with CSV export.
class ProbeRecorder final : public SimObserver {
 public:
  explicit ProbeRecorder(std::uint64_t stride = 1)
      : stride_(stride == 0 ? 1 : stride) {}

  [[nodiscard]] std::uint64_t stride() const noexcept override {
    return stride_;
  }
  void on_run_begin(unsigned ports) override;
  void on_cycle(const CycleSample& sample) override;

  [[nodiscard]] std::size_t samples() const noexcept { return cycle_.size(); }
  [[nodiscard]] unsigned ports() const noexcept { return ports_; }

  /// Header row then one row per sample:
  /// cycle,queued_packets,queued_words,delivered_words,delivered_packets,
  /// grants,stall_cycles,buffered_words,switch_j,buffer_j,wire_j,
  /// port_words_0..port_words_{P-1}
  void write_csv(std::ostream& out) const;

 private:
  std::uint64_t stride_;
  unsigned ports_ = 0;
  std::vector<std::uint64_t> cycle_;
  std::vector<std::uint64_t> queued_packets_;
  std::vector<std::uint64_t> queued_words_;
  std::vector<std::uint64_t> delivered_words_;
  std::vector<std::uint64_t> delivered_packets_;
  std::vector<std::uint64_t> grants_;
  std::vector<std::uint64_t> stall_cycles_;
  std::vector<std::uint64_t> buffered_words_;
  std::vector<double> switch_energy_j_;
  std::vector<double> buffer_energy_j_;
  std::vector<double> wire_energy_j_;
  std::vector<std::uint64_t> port_words_;  ///< samples x ports, row-major
};

}  // namespace sfab::obs
