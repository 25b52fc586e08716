// Demonstrates how Table 1 would be produced: random-vector power
// characterization of synthesized gate netlists — our in-repo substitute
// for the paper's Synopsys Power Compiler flow.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/task_pool.hpp"
#include "common/units.hpp"
#include "gatelevel/bitsliced.hpp"
#include "gatelevel/power_sim.hpp"
#include "gatelevel/switch_netlists.hpp"
#include "power/switch_energy.hpp"
#include "sim/report.hpp"

int main() {
  using namespace sfab;
  using namespace sfab::gatelevel;
  using units::fJ;

  // Multi-word bit-sliced engine (the default: 512 Monte-Carlo lanes per
  // sweep, SIMD kernel picked at runtime): 256k Monte-Carlo lane-cycles
  // per mask cost what 4k scalar cycles used to, so the LUTs here are ~8x
  // tighter than the pre-bitslicing run of this bench at a fraction of
  // the wall clock — and the wide-MUX table below now extends to N = 256
  // inputs, which the 64-lane engine had to truncate at N = 16 for cost.
  // Masks and MUX rows are independent samples: the masks go to
  // characterize()'s worker pool, the rows to one task each, and the
  // results are the same at any worker count.
  CharacterizationConfig cfg{256'000, 128, 0x7ab1e1};
  cfg.threads = 0;
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  const auto paper = SwitchEnergyTables::paper_defaults();

  std::cout << "=== Gate-level LUT derivation (substitute for Power "
               "Compiler, 0.18 um / 3.3 V cells; bit-sliced x"
            << BitslicedNetlist::kMaxLanes << " lanes ("
            << to_string(resolve_lane_kernel(LaneKernel::kAuto))
            << " kernel), " << cfg.cycles << " cycles/mask) ===\n\n";

  // 2x2 switches: full 4-vector LUTs vs paper Table 1.
  TextTable t;
  t.set_header({"switch", "vector", "derived (fJ/bit)", "paper (fJ/bit)",
                "ratio"});
  {
    SwitchHarness banyan = build_banyan_switch(32);
    const auto lut = characterize_two_port_lut(banyan, cfg);
    const double paper_vals[4] = {
        0.0, paper.banyan2x2.energy_per_bit(0b01u) / fJ,
        paper.banyan2x2.energy_per_bit(0b10u) / fJ,
        paper.banyan2x2.energy_per_bit(0b11u) / fJ};
    const char* vec[4] = {"[0,0]", "[0,1]", "[1,0]", "[1,1]"};
    for (int m = 0; m < 4; ++m) {
      const double derived = lut[m] / fJ;
      t.add_row({"banyan 2x2 (" + std::to_string(banyan.netlist.num_gates()) +
                     " gates)",
                 vec[m], format_fixed(derived, 0),
                 format_fixed(paper_vals[m], 0),
                 paper_vals[m] > 0.0
                     ? format_fixed(derived / paper_vals[m], 2)
                     : "-"});
    }
  }
  {
    SwitchHarness sorter = build_sorter_switch(32);
    const auto lut = characterize_two_port_lut(sorter, cfg);
    const double paper_vals[4] = {
        0.0, paper.sorter2x2.energy_per_bit(0b01u) / fJ,
        paper.sorter2x2.energy_per_bit(0b10u) / fJ,
        paper.sorter2x2.energy_per_bit(0b11u) / fJ};
    const char* vec[4] = {"[0,0]", "[0,1]", "[1,0]", "[1,1]"};
    for (int m = 0; m < 4; ++m) {
      const double derived = lut[m] / fJ;
      t.add_row({"batcher 2x2 (" +
                     std::to_string(sorter.netlist.num_gates()) + " gates)",
                 vec[m], format_fixed(derived, 0),
                 format_fixed(paper_vals[m], 0),
                 paper_vals[m] > 0.0
                     ? format_fixed(derived / paper_vals[m], 2)
                     : "-"});
    }
  }
  {
    SwitchHarness cross = build_crosspoint(32);
    const auto results = characterize(cross, {0u, 1u}, cfg);
    const char* vec[2] = {"[0]", "[1]"};
    const double paper_vals[2] = {0.0,
                                  paper.crosspoint.energy_per_bit(1u) / fJ};
    for (int m = 0; m < 2; ++m) {
      const double derived = results[m].energy_per_bit_j / fJ;
      t.add_row({"crosspoint (" +
                     std::to_string(cross.netlist.num_gates()) + " gates)",
                 vec[m], format_fixed(derived, 0),
                 format_fixed(paper_vals[m], 0),
                 paper_vals[m] > 0.0
                     ? format_fixed(derived / paper_vals[m], 2)
                     : "-"});
    }
  }
  t.print(std::cout);

  std::cout << "\nN-input MUX (all inputs driven, random selects; N > 32 "
               "uses the all-active drive plan — a uint32_t occupancy mask "
               "can't express those states):\n";
  const std::vector<unsigned> sizes{4, 8, 16, 64, 256};
  std::vector<std::vector<std::string>> rows(sizes.size());
  run_task_pool(sizes.size(), workers, [&](const auto& claim) {
    for (std::size_t i = 0; claim(i);) {
      const unsigned n = sizes[i];
      SwitchHarness mux = build_mux(n, 32);
      const MaskEnergy result = characterize_all_active(mux, cfg);
      const double derived = result.energy_per_bit_j / fJ;
      const double expected = paper.mux_energy_per_bit(n) / fJ;
      rows[i] = {std::to_string(n), std::to_string(mux.netlist.num_gates()),
                 format_fixed(derived, 0), format_fixed(expected, 0),
                 format_fixed(derived / expected, 2)};
    }
  });
  TextTable m;
  m.set_header({"N", "gates", "derived (fJ/bit)", "paper (fJ/bit)", "ratio"});
  for (auto& row : rows) m.add_row(std::move(row));
  m.print(std::cout);

  std::cout << "\n(shape checks: [1,1] > [0,1] but < 2x; sorter > banyan "
               "switch; MUX grows with N;\nabsolute ratios reflect our "
               "synthetic netlists vs the paper's real circuits.)\n";
  return 0;
}
