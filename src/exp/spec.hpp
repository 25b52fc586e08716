// Declarative experiment sweeps: a parameter grid over SimConfig axes.
//
// Every figure and table of the paper is a sweep — architecture x ports x
// offered load x technology x pattern — and so is every ablation in bench/.
// SweepSpec declares that grid once; expand() resolves it to the full run
// list with deterministic per-run seeds, and exp/runner.hpp executes it on
// a thread pool. Results are bit-identical at any thread count because the
// expansion (including seeding) never depends on execution order.
//
// Seeding: replicate r of *every* grid point runs with
// derive_stream_seed(base.seed, r) (common/rng.hpp). Sharing the seed
// across grid points pairs the sweep — two architectures at the same load
// see the same arrival process, so their difference is architectural, not
// sampling noise. Distinct replicates get decorrelated SplitMix64 streams.
//
// Expansion order (documented, stable): architectures, ports, patterns,
// packet_words, payloads, schemes, tech_nodes, buffer_words,
// charge_read_and_write, loads, replicates — later axes vary faster, the
// replicate index fastest of all.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace sfab {

/// One fully-resolved run of a sweep, in expansion order.
struct RunPlan {
  std::size_t index = 0;   ///< position in expansion order
  unsigned replicate = 0;  ///< replicate id within this grid point
  SimConfig config;        ///< fully resolved; config.seed already derived
};

struct SweepSpec {
  /// Values for every axis the spec leaves empty; base.seed is the sweep's
  /// base seed (per-run seeds are derived from it, never used verbatim).
  SimConfig base;

  // --- axes: an empty vector keeps base's value for that axis -----------------
  std::vector<Architecture> architectures;
  std::vector<unsigned> ports;
  std::vector<TrafficPatternKind> patterns;
  std::vector<unsigned> packet_words;
  std::vector<PayloadKind> payloads;
  std::vector<RouterScheme> schemes;
  /// Technology preset names (TechnologyParams::preset); each run also
  /// rescales base.switches to the node (base tables are assumed to be
  /// characterized at the 0.18 um reference).
  std::vector<std::string> tech_nodes;
  std::vector<unsigned> buffer_words;
  std::vector<bool> charge_read_and_write;
  std::vector<double> loads;
  /// Independent seeds per grid point; must be >= 1.
  unsigned replicates = 1;

  // --- fluent construction ----------------------------------------------------
  SweepSpec& over_architectures(std::vector<Architecture> v) {
    architectures = std::move(v);
    return *this;
  }
  /// Accepts all_architectures() / extended_architectures() directly.
  template <std::size_t N>
  SweepSpec& over_architectures(const std::array<Architecture, N>& v) {
    architectures.assign(v.begin(), v.end());
    return *this;
  }
  SweepSpec& over_ports(std::vector<unsigned> v) {
    ports = std::move(v);
    return *this;
  }
  SweepSpec& over_patterns(std::vector<TrafficPatternKind> v) {
    patterns = std::move(v);
    return *this;
  }
  SweepSpec& over_packet_words(std::vector<unsigned> v) {
    packet_words = std::move(v);
    return *this;
  }
  SweepSpec& over_payloads(std::vector<PayloadKind> v) {
    payloads = std::move(v);
    return *this;
  }
  SweepSpec& over_schemes(std::vector<RouterScheme> v) {
    schemes = std::move(v);
    return *this;
  }
  SweepSpec& over_tech_nodes(std::vector<std::string> v) {
    tech_nodes = std::move(v);
    return *this;
  }
  SweepSpec& over_buffer_words(std::vector<unsigned> v) {
    buffer_words = std::move(v);
    return *this;
  }
  SweepSpec& over_charge_read_and_write(std::vector<bool> v) {
    charge_read_and_write = std::move(v);
    return *this;
  }
  SweepSpec& over_loads(std::vector<double> v) {
    loads = std::move(v);
    return *this;
  }
  SweepSpec& with_replicates(unsigned n) {
    replicates = n;
    return *this;
  }

  /// Number of grid points (product of non-empty axis sizes).
  [[nodiscard]] std::size_t grid_size() const noexcept;

  /// grid_size() * replicates.
  [[nodiscard]] std::size_t run_count() const noexcept;

  /// Resolves the grid to the full run list in expansion order, with
  /// per-run seeds derived from base.seed. Throws std::invalid_argument
  /// when replicates == 0, a tech preset name is unknown or validate()
  /// rejects a plan, so a bad grid fails before any run starts.
  [[nodiscard]] std::vector<RunPlan> expand() const;
};

}  // namespace sfab
