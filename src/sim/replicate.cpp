#include "sim/replicate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace sfab {

namespace {

/// Two-sided 97.5% Student-t quantiles for n-1 degrees of freedom; the
/// asymptotic 1.96 beyond the tabulated range (error < 2% past n = 30).
double t_quantile_975(unsigned dof) {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
      2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
      2.048,  2.045, 2.042};
  if (dof == 0) return 0.0;
  if (dof <= std::size(kTable)) return kTable[dof - 1];
  return 1.96;
}

}  // namespace

Statistic summarize(const std::vector<double>& samples) {
  if (samples.empty()) {
    throw std::invalid_argument("summarize: need at least one sample");
  }
  Statistic s;
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  for (const double x : samples) s.mean += x;
  s.mean /= static_cast<double>(samples.size());
  if (samples.size() < 2) return s;

  double sum_sq = 0.0;
  for (const double x : samples) sum_sq += (x - s.mean) * (x - s.mean);
  const auto n = static_cast<double>(samples.size());
  s.stddev = std::sqrt(sum_sq / (n - 1.0));
  s.ci95_half = t_quantile_975(static_cast<unsigned>(samples.size()) - 1) *
                s.stddev / std::sqrt(n);
  return s;
}

ReplicatedResult replicate(SimConfig config, unsigned replications) {
  if (replications < 1) {
    throw std::invalid_argument("replicate: need >= 1 replication");
  }
  const std::uint64_t base_seed = config.seed;
  std::vector<SimResult> runs;
  runs.reserve(replications);
  for (unsigned k = 0; k < replications; ++k) {
    config.seed = derive_stream_seed(base_seed, k);
    runs.push_back(run_simulation(config));
  }

  ReplicatedResult result;
  result.replications = replications;

  std::vector<double> power, sw, buf, wire, epb, thr, lat;
  for (const SimResult& r : runs) {
    power.push_back(r.power_w);
    sw.push_back(r.switch_power_w);
    buf.push_back(r.buffer_power_w);
    wire.push_back(r.wire_power_w);
    epb.push_back(r.energy_per_bit_j);
    thr.push_back(r.egress_throughput);
    lat.push_back(r.mean_packet_latency_cycles);
  }
  result.runs = std::move(runs);
  result.power_w = summarize(power);
  result.switch_power_w = summarize(sw);
  result.buffer_power_w = summarize(buf);
  result.wire_power_w = summarize(wire);
  result.energy_per_bit_j = summarize(epb);
  result.egress_throughput = summarize(thr);
  result.mean_packet_latency_cycles = summarize(lat);
  return result;
}

}  // namespace sfab
