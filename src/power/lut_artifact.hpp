// Versioned switch-energy LUT artifact: the characterization ladder's
// ground truth, serialized.
//
// The gate-level engine (src/gatelevel) re-derives the paper's Table 1
// quantities from synthetic netlists; this module runs that ladder — every
// switch harness, every TechnologyParams preset, MUX port counts doubling
// up to 1024 — and freezes the measured coefficients into a schema-stamped
// JSON artifact (power/luts/switch_luts.json). The analytical model loads
// its SwitchEnergyTables from the artifact instead of hardcoded constants,
// and scripts/check_lut_drift.py regenerates a reduced ladder in CI and
// fails on any coefficient that deviates — so model coefficients can never
// silently drift from gate-level ground truth.
//
// Exactness contract: every energy is written as a C99 hexfloat string
// ("%a"), which round-trips doubles bit for bit, and the ladder itself is
// deterministic (characterize() is bit-identical across engines, kernels,
// block widths, and thread counts). Same generator config => byte-equal
// coefficients on any host, which is what makes an exact-match drift gate
// possible.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "power/switch_energy.hpp"

namespace sfab {

struct LutArtifact {
  static constexpr std::string_view kSchema = "sfab-switch-lut";
  static constexpr int kSchemaVersion = 1;

  /// The Monte-Carlo sample every table row was measured with (see
  /// gatelevel::CharacterizationConfig). Stamped into the artifact so a
  /// drift check can refuse to compare apples to oranges.
  struct Generator {
    std::uint64_t cycles = 262144;
    unsigned warmup = 128;
    std::uint64_t seed = 0x5FAB1D;
    unsigned lanes = 512;
    unsigned bits_per_port = 32;
  };

  /// One technology preset's measured tables, all joules per bit-slot.
  struct PresetTables {
    /// energy_scale_vs_reference() of the preset, applied to the netlist
    /// gate coefficients before measuring.
    double energy_scale = 1.0;
    std::vector<double> crosspoint;  ///< 2 entries, occupancy-indexed
    std::vector<double> banyan2x2;   ///< 4 entries, occupancy-indexed
    std::vector<double> sorter2x2;   ///< 4 entries, occupancy-indexed
    std::vector<unsigned> mux_inputs;   ///< MUX port-count ladder (pow2)
    std::vector<double> mux_per_bit_j;  ///< all-active energy at each size
  };

  Generator generator;
  /// Preset sections in ladder order (insertion order is serialized).
  std::vector<std::pair<std::string, PresetTables>> presets;

  /// nullptr when the preset is not in the artifact.
  [[nodiscard]] const PresetTables* find(const std::string& preset) const;

  /// Materializes the preset's tables in the form the analytical model
  /// consumes (throws std::out_of_range for a missing preset).
  [[nodiscard]] SwitchEnergyTables switch_tables(
      const std::string& preset) const;
};

struct LutBuildOptions {
  LutArtifact::Generator generator;
  /// Presets to characterize; empty = TechnologyParams::preset_names().
  std::vector<std::string> presets;
  /// Top of the MUX port-count ladder (power of two >= 4). 1024 is the
  /// shipped artifact; CI's reduced ladder stops at 64.
  unsigned max_mux_inputs = 1024;
  /// Worker threads over the ladder's tasks, one per (preset, table) and
  /// per (preset, MUX rung), each characterized single-threaded (0 = one
  /// per hardware thread). The artifact is the same at any count.
  unsigned threads = 0;
};

/// Runs the full characterization ladder. Deterministic: identical options
/// produce an identical artifact on any host/kernel/thread count.
[[nodiscard]] LutArtifact build_lut_artifact(const LutBuildOptions& options = {});

/// JSON serialization (hexfloat-exact; see file comment).
void write_lut_artifact(std::ostream& out, const LutArtifact& artifact);
[[nodiscard]] LutArtifact parse_lut_artifact(std::istream& in);
[[nodiscard]] LutArtifact load_lut_artifact(const std::string& path);
void save_lut_artifact(const std::string& path, const LutArtifact& artifact);

}  // namespace sfab
