#include "gatelevel/power_sim.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/task_pool.hpp"
#include "gatelevel/bitsliced.hpp"

namespace sfab::gatelevel {

std::vector<std::uint32_t> all_masks(unsigned ports) {
  if (ports >= 20) {
    throw std::invalid_argument("all_masks: too many ports for full sweep");
  }
  std::vector<std::uint32_t> masks(1u << ports);
  for (std::uint32_t m = 0; m < masks.size(); ++m) masks[m] = m;
  return masks;
}

namespace {

/// The Monte-Carlo sample a config defines: `lanes` streams, each measured
/// `steps` cycles. A pure function of the config — every engine and
/// kernel processes exactly this sample.
struct SampleGrid {
  unsigned lanes = 0;
  std::uint64_t steps = 0;
};

SampleGrid grid_of(const CharacterizationConfig& config) {
  SampleGrid grid;
  grid.lanes =
      config.lanes == 0 ? BitslicedNetlist::kMaxLanes : config.lanes;
  if (grid.lanes > BitslicedNetlist::kMaxLanes) {
    throw std::invalid_argument("characterize: lanes must be <= 512");
  }
  // Toggle counters are exact uint64 accumulators bounded by one flip per
  // lane per (warmup + measured) step; reject budgets where that bound —
  // or the ceil rounding below — cannot be represented, instead of letting
  // the "exact integer counts" invariance contract silently wrap.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (config.cycles > kMax - (grid.lanes - 1)) {
    throw std::overflow_error(
        "characterize: cycles overflows the exact toggle accumulators");
  }
  grid.steps = (config.cycles + grid.lanes - 1) / grid.lanes;
  if (grid.steps > kMax / grid.lanes - config.warmup) {
    throw std::overflow_error(
        "characterize: cycles + warmup overflows the exact toggle "
        "accumulators");
  }
  return grid;
}

/// The DFF idle term multiplies num_dffs into lane_cycles; it is the one
/// accumulator product a representable grid can still overflow. Checked at
/// measurer construction, where the netlist is known.
std::uint64_t checked_idle_lane_cycles(std::size_t num_dffs,
                                       const SampleGrid& grid) {
  const std::uint64_t lane_cycles = std::uint64_t{grid.lanes} * grid.steps;
  if (num_dffs > 1 &&
      lane_cycles > std::numeric_limits<std::uint64_t>::max() / num_dffs) {
    throw std::overflow_error(
        "characterize: cycles * num_dffs overflows the DFF idle-energy "
        "accumulator");
  }
  return num_dffs * lane_cycles;
}

/// Exact integer toggle counts of one measured drive, summed over the
/// sample's lanes and measured steps: per DFF in latch order, per op in
/// program order, plus the lane-cycles the DFF idle term and the average
/// are taken over.
struct ToggleCounts {
  std::vector<std::uint64_t> dff;
  std::vector<std::uint64_t> op;
  std::uint64_t idle_lane_cycles = 0;  ///< num_dffs * lane_cycles
  std::uint64_t lane_cycles = 0;
};

/// Canonical exact energy reduction: DFF idle events, then per-DFF toggle
/// counts in latch order, then per-op toggle counts in program order, each
/// multiplied by its coefficient, averaged per lane-cycle. Counts are exact
/// integers, so any processing that measures the same sample reduces to
/// the same double — this is the engine/kernel invariance contract.
double energy_per_cycle(const LaneCoefficients& coeffs,
                        const ToggleCounts& counts) {
  double energy =
      coeffs.dff_idle_j * static_cast<double>(counts.idle_lane_cycles);
  for (std::size_t k = 0; k < counts.dff.size(); ++k) {
    energy += coeffs.dff[k] * static_cast<double>(counts.dff[k]);
  }
  for (std::size_t g = 0; g < counts.op.size(); ++g) {
    energy += coeffs.op[g] * static_cast<double>(counts.op[g]);
  }
  return energy / static_cast<double>(counts.lane_cycles);
}

/// Measures the exact toggle counts of one drive plan; engines are built
/// once per characterization and reused across masks.
struct DriveMeasurer {
  virtual ~DriveMeasurer() = default;
  virtual ToggleCounts measure(const MaskDrive& drive) = 0;
};

/// Fast path: the multi-word bit-sliced engine advances the whole lane
/// population (at most 512 lanes, one block) per sweep. The engine
/// compiles the lane program once and is reused per mask.
class BitslicedMeasurer final : public DriveMeasurer {
 public:
  BitslicedMeasurer(SwitchHarness& harness,
                    const CharacterizationConfig& config)
      : config_(config),
        grid_(grid_of(config)),
        engine_(harness.netlist, grid_.lanes, config.kernel),
        idle_lane_cycles_(
            checked_idle_lane_cycles(engine_.num_dffs(), grid_)) {}

  ToggleCounts measure(const MaskDrive& drive) override {
    const unsigned words = engine_.words();
    engine_.reset();
    LaneRngBlock rng(config_.seed, words);
    std::vector<std::uint64_t> blocks(engine_.num_inputs() * words, 0);

    const auto drive_step = [&] {
      std::fill(blocks.begin(), blocks.end(), 0);
      for (const auto& [pin, active] : drive.forced) {
        const std::uint64_t value = active ? ~std::uint64_t{0} : 0;
        for (unsigned w = 0; w < words; ++w) blocks[pin * words + w] = value;
      }
      for (const std::size_t pin : drive.random) {
        rng.next_block(blocks.data() + pin * words);
      }
      engine_.step(blocks);
    };

    for (unsigned c = 0; c < config_.warmup; ++c) drive_step();
    ToggleCounts counts;
    counts.op = engine_.op_toggle_counts();
    counts.dff = engine_.dff_toggle_counts();
    for (std::uint64_t c = 0; c < grid_.steps; ++c) drive_step();
    const auto& op_now = engine_.op_toggle_counts();
    const auto& dff_now = engine_.dff_toggle_counts();
    for (std::size_t g = 0; g < counts.op.size(); ++g) {
      counts.op[g] = op_now[g] - counts.op[g];
    }
    for (std::size_t k = 0; k < counts.dff.size(); ++k) {
      counts.dff[k] = dff_now[k] - counts.dff[k];
    }
    counts.idle_lane_cycles = idle_lane_cycles_;
    counts.lane_cycles = std::uint64_t{grid_.lanes} * grid_.steps;
    return counts;
  }

 private:
  CharacterizationConfig config_;
  SampleGrid grid_;
  BitslicedNetlist engine_;
  std::uint64_t idle_lane_cycles_;
};

/// Reference path: the scalar engine driven lane by lane with the exact
/// bit streams the bit-sliced engines consume (BitRng over
/// derive_stream_seed(seed, lane)), its per-gate counts gathered into the
/// lane program's order.
class ScalarMeasurer final : public DriveMeasurer {
 public:
  ScalarMeasurer(SwitchHarness& harness, const CharacterizationConfig& config)
      : harness_(harness),
        config_(config),
        grid_(grid_of(config)),
        idle_lane_cycles_(checked_idle_lane_cycles(
            harness.netlist.dff_gates().size(), grid_)) {}

  ToggleCounts measure(const MaskDrive& drive) override {
    Netlist& nl = harness_.netlist;
    const auto& order = nl.level_order();
    const auto& dffs = nl.dff_gates();
    ToggleCounts counts;
    counts.op.assign(order.size(), 0);
    counts.dff.assign(dffs.size(), 0);
    std::vector<bool> stimulus(nl.inputs().size(), false);

    for (unsigned lane = 0; lane < grid_.lanes; ++lane) {
      nl.reset();
      BitRng bits{Rng{derive_stream_seed(config_.seed, lane)}};

      const auto drive_cycle = [&] {
        std::fill(stimulus.begin(), stimulus.end(), false);
        for (const auto& [pin, active] : drive.forced) stimulus[pin] = active;
        for (const std::size_t pin : drive.random) {
          stimulus[pin] = bits.next_bit();
        }
        nl.step(stimulus);
      };

      for (unsigned c = 0; c < config_.warmup; ++c) drive_cycle();
      const std::vector<std::uint64_t> base = nl.gate_toggle_counts();
      for (std::uint64_t c = 0; c < grid_.steps; ++c) drive_cycle();
      const auto& now = nl.gate_toggle_counts();
      for (std::size_t i = 0; i < order.size(); ++i) {
        counts.op[i] += now[order[i]] - base[order[i]];
      }
      for (std::size_t k = 0; k < dffs.size(); ++k) {
        counts.dff[k] += now[dffs[k]] - base[dffs[k]];
      }
    }
    counts.idle_lane_cycles = idle_lane_cycles_;
    counts.lane_cycles = std::uint64_t{grid_.lanes} * grid_.steps;
    return counts;
  }

 private:
  SwitchHarness& harness_;
  CharacterizationConfig config_;
  SampleGrid grid_;
  std::uint64_t idle_lane_cycles_;
};

std::unique_ptr<DriveMeasurer> make_measurer(
    SwitchHarness& harness, const CharacterizationConfig& config) {
  if (config.cycles == 0) {
    throw std::invalid_argument("characterize: cycles must be >= 1");
  }
  if (!harness.netlist.finalized()) {
    throw std::invalid_argument("characterize: netlist not finalized");
  }
  if (config.engine == CharacterizeEngine::kScalar) {
    return std::make_unique<ScalarMeasurer>(harness, config);
  }
  return std::make_unique<BitslicedMeasurer>(harness, config);
}

unsigned worker_count(const CharacterizationConfig& config,
                      std::size_t n_masks) {
  const unsigned requested =
      config.threads != 0 ? config.threads
                          : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(requested, std::max<std::size_t>(n_masks, 1)));
}

/// Measures each drive once and reduces it at every scale: result[s][i]
/// is drive i (labelled masks[i]) at scales[s]. Every drive's sample and
/// plan are pure functions of (config, harness, drive), and each result
/// lands in its own slot, so which worker measures which drive is
/// invisible — output is bit-identical at any thread count. Each worker
/// owns a private harness copy (the scalar engine mutates its netlist)
/// and a private engine stack, so workers share nothing mutable.
std::vector<std::vector<MaskEnergy>> measure_at_scales(
    SwitchHarness& harness, const std::vector<std::uint32_t>& masks,
    const std::vector<MaskDrive>& drives, const std::vector<double>& scales,
    const CharacterizationConfig& config) {
  // Validate on the calling thread, so the threaded path throws what the
  // serial one does.
  std::unique_ptr<DriveMeasurer> measurer = make_measurer(harness, config);
  std::vector<LaneCoefficients> coeffs;
  coeffs.reserve(scales.size());
  for (const double scale : scales) {
    coeffs.push_back(lane_coefficients(harness.netlist, scale));
  }

  std::vector<std::vector<MaskEnergy>> results(
      scales.size(), std::vector<MaskEnergy>(drives.size()));
  const auto measure_into = [&](DriveMeasurer& m, std::size_t i) {
    const ToggleCounts counts = m.measure(drives[i]);
    for (std::size_t s = 0; s < scales.size(); ++s) {
      MaskEnergy& entry = results[s][i];
      entry.mask = masks[i];
      entry.energy_per_cycle_j = energy_per_cycle(coeffs[s], counts);
      entry.energy_per_bit_j =
          entry.energy_per_cycle_j / harness.bits_per_port;
    }
  };
  const unsigned workers = worker_count(config, drives.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < drives.size(); ++i) measure_into(*measurer, i);
    return results;
  }
  measurer.reset();
  run_task_pool(drives.size(), workers, [&](const auto& claim) {
    SwitchHarness local = harness;
    const auto local_measurer = make_measurer(local, config);
    for (std::size_t i = 0; claim(i);) measure_into(*local_measurer, i);
  });
  return results;
}

}  // namespace

std::vector<std::vector<MaskEnergy>> characterize_at_scales(
    SwitchHarness& harness, const std::vector<std::uint32_t>& masks,
    const std::vector<double>& scales, const CharacterizationConfig& config) {
  std::vector<MaskDrive> drives;
  drives.reserve(masks.size());
  for (const std::uint32_t mask : masks) {
    drives.push_back(harness.drive_schedule(mask));
  }
  return measure_at_scales(harness, masks, drives, scales, config);
}

std::vector<MaskEnergy> characterize_all_active_at_scales(
    SwitchHarness& harness, const std::vector<double>& scales,
    const CharacterizationConfig& config) {
  const auto results = measure_at_scales(
      harness, {0xFFFFFFFFu}, {harness.drive_schedule_all()}, scales, config);
  std::vector<MaskEnergy> out;
  out.reserve(results.size());
  for (const auto& at_scale : results) out.push_back(at_scale.front());
  return out;
}

std::vector<MaskEnergy> characterize(SwitchHarness& harness,
                                     const std::vector<std::uint32_t>& masks,
                                     const CharacterizationConfig& config) {
  return characterize_at_scales(harness, masks,
                                {harness.netlist.energy_scale()}, config)
      .front();
}

MaskEnergy characterize_all_active(SwitchHarness& harness,
                                   const CharacterizationConfig& config) {
  return characterize_all_active_at_scales(
             harness, {harness.netlist.energy_scale()}, config)
      .front();
}

std::vector<double> characterize_two_port_lut(
    SwitchHarness& harness, const CharacterizationConfig& config) {
  if (harness.port_data.size() != 2) {
    throw std::invalid_argument("characterize_two_port_lut: need 2 ports");
  }
  const auto measured = characterize(harness, all_masks(2), config);
  std::vector<double> lut(4, 0.0);
  for (const MaskEnergy& m : measured) lut[m.mask] = m.energy_per_bit_j;
  return lut;
}

}  // namespace sfab::gatelevel
