// Multi-seed replication with confidence intervals.
//
// One simulation run is a single sample of a stochastic process; reporting
// it alone (as the paper's era commonly did) hides the run-to-run spread.
// `replicate` repeats a SimConfig across independent seeds and returns
// mean, sample standard deviation and a Student-t 95% confidence
// half-width for every scalar measurement, so experiments can state "the
// Banyan burns 5.38 W ± 0.04" instead of a bare point.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/lane_sim.hpp"
#include "sim/simulation.hpp"

namespace sfab {

/// Summary statistics of one scalar across replications.
struct Statistic {
  double mean = 0.0;
  double stddev = 0.0;     ///< sample (n-1) standard deviation
  double ci95_half = 0.0;  ///< Student-t 95% confidence half-width
  double min = 0.0;
  double max = 0.0;

  /// True when `other`'s mean lies outside this statistic's 95% CI —
  /// a quick "are these operating points distinguishable?" check.
  [[nodiscard]] bool distinguishable_from(const Statistic& other) const {
    const double gap = other.mean - mean;
    return gap > ci95_half + other.ci95_half ||
           -gap > ci95_half + other.ci95_half;
  }
};

/// Computes summary statistics of `samples` (needs >= 2 for spread; a
/// single sample yields zero spread).
[[nodiscard]] Statistic summarize(const std::vector<double>& samples);

struct ReplicatedResult {
  Statistic power_w;
  Statistic switch_power_w;
  Statistic buffer_power_w;
  Statistic wire_power_w;
  Statistic energy_per_bit_j;
  Statistic egress_throughput;
  Statistic mean_packet_latency_cycles;
  unsigned replications = 0;
  /// The raw per-seed results, in seed order.
  std::vector<SimResult> runs;
};

/// Runs `config` under `replications` decorrelated seeds —
/// derive_stream_seed(config.seed, k) for replicate k, the same derivation
/// SweepSpec uses — and summarizes. replications must be >= 1.
///
/// The default engine runs the replicates as lanes of the lane engine
/// (sim/lane_sim.hpp); configurations it does not cover fall back to
/// per-replicate reference runs automatically. Either engine choice
/// yields bit-identical results — kScalar runs run_reference_simulation
/// per seed, the oracle.
[[nodiscard]] ReplicatedResult replicate(
    SimConfig config, unsigned replications,
    ReplicateEngine engine = ReplicateEngine::kLaned);

}  // namespace sfab
