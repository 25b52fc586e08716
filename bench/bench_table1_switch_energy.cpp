// Reproduces paper Table 1: "Bit Energy Under Different Input Vectors".
//
// The shipped LUTs are the paper's Power Compiler characterization; this
// bench prints them in the paper's layout so they can be diffed against
// the paper directly (ROADMAP.md item 5, the paper-fidelity ledger).
// (bench_gatelevel_characterize shows how the same table is *derived* from
// gate netlists.)
#include <iostream>

#include "common/units.hpp"
#include "power/switch_energy.hpp"
#include "sim/report.hpp"

int main() {
  using namespace sfab;
  using units::fJ;

  const auto tables = SwitchEnergyTables::paper_defaults();
  const auto in_fj = [](double joules) {
    return format_fixed(joules / fJ, 0);
  };

  std::cout << "=== Table 1: switch-fabric bit energy under input vectors "
               "(10^-15 joule) ===\n\n";

  TextTable two_port;
  two_port.set_header({"architecture", "[0,0]", "[0,1]", "[1,0]", "[1,1]"});
  two_port.add_row({"crossbar 1x1   [0]/[1]",
                    in_fj(tables.crosspoint.energy_per_bit(0u)),
                    in_fj(tables.crosspoint.energy_per_bit(1u)), "-", "-"});
  two_port.add_row({"banyan 2x2",
                    in_fj(tables.banyan2x2.energy_per_bit(false, false)),
                    in_fj(tables.banyan2x2.energy_per_bit(false, true)),
                    in_fj(tables.banyan2x2.energy_per_bit(true, false)),
                    in_fj(tables.banyan2x2.energy_per_bit(true, true))});
  two_port.add_row({"batcher 2x2",
                    in_fj(tables.sorter2x2.energy_per_bit(false, false)),
                    in_fj(tables.sorter2x2.energy_per_bit(false, true)),
                    in_fj(tables.sorter2x2.energy_per_bit(true, false)),
                    in_fj(tables.sorter2x2.energy_per_bit(true, true))});
  two_port.print(std::cout);

  std::cout << "\nN-input MUX bit energy (per-N, near-constant across "
               "vectors):\n";
  TextTable mux;
  mux.set_header({"N", "bit energy (fJ)"});
  for (const unsigned n : {4u, 8u, 16u, 32u}) {
    mux.add_row({std::to_string(n), in_fj(tables.mux_energy_per_bit(n))});
  }
  mux.print(std::cout);

  std::cout << "\ninterpolated sizes (framework extension beyond the "
               "paper's calibration):\n";
  TextTable extra;
  extra.set_header({"N", "bit energy (fJ)"});
  for (const unsigned n : {6u, 12u, 24u, 64u}) {
    extra.add_row({std::to_string(n), in_fj(tables.mux_energy_per_bit(n))});
  }
  extra.print(std::cout);
  return 0;
}
