// Host metadata for benchmark provenance: a benchmark record (perfbench's
// result JSON) is only interpretable across machines when it says what
// machine and kernel selection produced it.
#pragma once

#include <iosfwd>
#include <string>

namespace sfab::obs {

struct HostInfo {
  std::string cpu_model;        ///< from /proc/cpuinfo; "unknown" elsewhere
  unsigned logical_cores = 0;   ///< std::thread::hardware_concurrency
  std::string gate_lane_kernel;    ///< dispatched gatelevel kernel name
  std::string packet_lane_kernel;  ///< dispatched packet-engine kernel name
};

/// Probes the current host (cached after the first call).
[[nodiscard]] const HostInfo& host_info();

/// {"cpu_model": "...", "logical_cores": N, "gate_lane_kernel": "...",
/// "packet_lane_kernel": "..."} — one line, no trailing newline.
void write_host_json(std::ostream& out);

}  // namespace sfab::obs
