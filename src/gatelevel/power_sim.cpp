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
/// `steps` cycles. A pure function of the config — every engine, block
/// width, and kernel processes exactly this sample.
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

/// Canonical exact energy reduction: DFF idle events, then per-DFF toggle
/// counts in latch order, then per-op toggle counts in program order, each
/// multiplied by its coefficient. Counts are exact integers, so any
/// processing that measures the same sample reduces to the same double —
/// this is the engine/block-width/kernel invariance contract.
double reduce_exact_energy(const BitslicedNetlist& program,
                           std::uint64_t idle_lane_cycles,
                           const std::vector<std::uint64_t>& dff_deltas,
                           const std::vector<std::uint64_t>& op_deltas) {
  double energy =
      program.dff_idle_j() * static_cast<double>(idle_lane_cycles);
  for (std::size_t k = 0; k < dff_deltas.size(); ++k) {
    energy += program.dff_coeffs()[k] * static_cast<double>(dff_deltas[k]);
  }
  for (std::size_t g = 0; g < op_deltas.size(); ++g) {
    energy += program.op_coeffs()[g] * static_cast<double>(op_deltas[g]);
  }
  return energy;
}

/// Measures average energy per lane-cycle for one drive plan; engines are
/// built once per characterization and reused across masks.
struct DriveMeasurer {
  virtual ~DriveMeasurer() = default;
  virtual double energy_per_cycle(const MaskDrive& drive) = 0;
};

/// Fast path: the multi-word bit-sliced engine advances block_lanes lanes
/// per sweep, covering the lane population in sequential passes. Lane
/// streams are a function of the global lane index (LaneRngBlock's
/// first_lane offset), so the pass decomposition is invisible in the
/// per-gate toggle counts.
class BitslicedMeasurer final : public DriveMeasurer {
 public:
  BitslicedMeasurer(SwitchHarness& harness,
                    const CharacterizationConfig& config)
      : config_(config), grid_(grid_of(config)) {
    const unsigned block = config.block_lanes == 0
                               ? BitslicedNetlist::kMaxLanes
                               : config.block_lanes;
    if (block % BitslicedNetlist::kWordLanes != 0 ||
        block > BitslicedNetlist::kMaxLanes) {
      throw std::invalid_argument(
          "characterize: block_lanes must be a multiple of 64 in [64, 512]");
    }
    for (unsigned first = 0; first < grid_.lanes; first += block) {
      passes_.push_back({first, std::min(block, grid_.lanes - first)});
    }
    for (const Pass& pass : passes_) {
      if (engine_for(pass.lanes) == nullptr) {
        engines_.emplace_back(
            pass.lanes,
            BitslicedNetlist(harness.netlist, pass.lanes, config.kernel));
      }
    }
    checked_idle_lane_cycles(engines_.front().second.num_dffs(), grid_);
  }

  double energy_per_cycle(const MaskDrive& drive) override {
    BitslicedNetlist& program = engines_.front().second;
    std::vector<std::uint64_t> op_deltas(program.op_coeffs().size(), 0);
    std::vector<std::uint64_t> dff_deltas(program.num_dffs(), 0);

    for (const Pass& pass : passes_) {
      BitslicedNetlist& engine = *engine_for(pass.lanes);
      const unsigned words = engine.words();
      engine.reset();
      LaneRngBlock rng(config_.seed, words, pass.first_lane);
      std::vector<std::uint64_t> blocks(engine.num_inputs() * words, 0);

      const auto drive_step = [&] {
        std::fill(blocks.begin(), blocks.end(), 0);
        for (const auto& [pin, active] : drive.forced) {
          const std::uint64_t value = active ? ~std::uint64_t{0} : 0;
          for (unsigned w = 0; w < words; ++w) blocks[pin * words + w] = value;
        }
        for (const std::size_t pin : drive.random) {
          rng.next_block(blocks.data() + pin * words);
        }
        engine.step(blocks);
      };

      for (unsigned c = 0; c < config_.warmup; ++c) drive_step();
      const std::vector<std::uint64_t> op_base = engine.op_toggle_counts();
      const std::vector<std::uint64_t> dff_base = engine.dff_toggle_counts();
      for (std::uint64_t c = 0; c < grid_.steps; ++c) drive_step();
      const auto& op_now = engine.op_toggle_counts();
      const auto& dff_now = engine.dff_toggle_counts();
      for (std::size_t g = 0; g < op_deltas.size(); ++g) {
        op_deltas[g] += op_now[g] - op_base[g];
      }
      for (std::size_t k = 0; k < dff_deltas.size(); ++k) {
        dff_deltas[k] += dff_now[k] - dff_base[k];
      }
    }

    const std::uint64_t lane_cycles =
        std::uint64_t{grid_.lanes} * grid_.steps;
    const double energy = reduce_exact_energy(
        program, checked_idle_lane_cycles(program.num_dffs(), grid_),
        dff_deltas, op_deltas);
    return energy / static_cast<double>(lane_cycles);
  }

 private:
  struct Pass {
    std::uint64_t first_lane = 0;
    unsigned lanes = 0;
  };

  BitslicedNetlist* engine_for(unsigned lanes) {
    for (auto& [n, engine] : engines_) {
      if (n == lanes) return &engine;
    }
    return nullptr;
  }

  CharacterizationConfig config_;
  SampleGrid grid_;
  std::vector<Pass> passes_;
  // Engines keyed by pass lane count (at most two: full block + ragged
  // tail); each compiles the lane program once and is reused per mask.
  std::vector<std::pair<unsigned, BitslicedNetlist>> engines_;
};

/// Reference path: the scalar engine driven lane by lane with the exact
/// bit streams the bit-sliced engines consume (BitRng over
/// derive_stream_seed(seed, lane)). A BitslicedNetlist is kept purely as
/// the coefficient/ordering view so the reduction uses the identical
/// doubles in the identical order.
class ScalarMeasurer final : public DriveMeasurer {
 public:
  ScalarMeasurer(SwitchHarness& harness, const CharacterizationConfig& config)
      : harness_(harness),
        config_(config),
        grid_(grid_of(config)),
        program_(harness.netlist, BitslicedNetlist::kWordLanes,
                 LaneKernel::kPortable) {
    checked_idle_lane_cycles(program_.num_dffs(), grid_);
  }

  double energy_per_cycle(const MaskDrive& drive) override {
    Netlist& nl = harness_.netlist;
    const auto& order = nl.level_order();
    const auto& dffs = nl.dff_gates();
    std::vector<std::uint64_t> op_deltas(order.size(), 0);
    std::vector<std::uint64_t> dff_deltas(dffs.size(), 0);
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
        op_deltas[i] += now[order[i]] - base[order[i]];
      }
      for (std::size_t k = 0; k < dffs.size(); ++k) {
        dff_deltas[k] += now[dffs[k]] - base[dffs[k]];
      }
    }

    const std::uint64_t lane_cycles =
        std::uint64_t{grid_.lanes} * grid_.steps;
    const double energy = reduce_exact_energy(
        program_, checked_idle_lane_cycles(program_.num_dffs(), grid_),
        dff_deltas, op_deltas);
    return energy / static_cast<double>(lane_cycles);
  }

 private:
  SwitchHarness& harness_;
  CharacterizationConfig config_;
  SampleGrid grid_;
  BitslicedNetlist program_;
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

MaskEnergy entry_for(const SwitchHarness& harness, std::uint32_t mask,
                     double per_cycle) {
  MaskEnergy entry;
  entry.mask = mask;
  entry.energy_per_cycle_j = per_cycle;
  entry.energy_per_bit_j = per_cycle / harness.bits_per_port;
  return entry;
}

unsigned worker_count(const CharacterizationConfig& config,
                      std::size_t n_masks) {
  const unsigned requested =
      config.threads != 0 ? config.threads
                          : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(requested, std::max<std::size_t>(n_masks, 1)));
}

}  // namespace

std::vector<MaskEnergy> characterize(SwitchHarness& harness,
                                     const std::vector<std::uint32_t>& masks,
                                     const CharacterizationConfig& config) {
  const unsigned workers = worker_count(config, masks.size());
  if (workers <= 1) {
    const auto measurer = make_measurer(harness, config);
    std::vector<MaskEnergy> results;
    results.reserve(masks.size());
    for (const std::uint32_t mask : masks) {
      const MaskDrive drive = harness.drive_schedule(mask);
      results.push_back(
          entry_for(harness, mask, measurer->energy_per_cycle(drive)));
    }
    return results;
  }

  // Worker pool across masks. Every mask's sample and drive plan are pure
  // functions of (config, harness, mask), and results land in results[i]
  // by canonical index, so which worker measures which mask is invisible —
  // output is bit-identical at any thread count. Drive plans are computed
  // up front on the calling thread; each worker owns a private harness
  // copy (the scalar engine mutates its netlist) and a private engine
  // stack, so workers share nothing mutable.
  std::vector<MaskDrive> drives;
  drives.reserve(masks.size());
  for (const std::uint32_t mask : masks) {
    drives.push_back(harness.drive_schedule(mask));
  }
  // Validate config/harness on the calling thread so invalid inputs throw
  // the same exceptions they would serially.
  make_measurer(harness, config);

  std::vector<MaskEnergy> results(masks.size());
  run_task_pool(masks.size(), workers, [&](const auto& claim) {
    SwitchHarness local = harness;
    const auto measurer = make_measurer(local, config);
    for (std::size_t i = 0; claim(i);) {
      results[i] =
          entry_for(local, masks[i], measurer->energy_per_cycle(drives[i]));
    }
  });
  return results;
}

MaskEnergy characterize_all_active(SwitchHarness& harness,
                                   const CharacterizationConfig& config) {
  const auto measurer = make_measurer(harness, config);
  const MaskDrive drive = harness.drive_schedule_all();
  return entry_for(harness, 0xFFFFFFFFu, measurer->energy_per_cycle(drive));
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
