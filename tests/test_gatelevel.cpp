// Tests for the gate-level characterization substrate (the stand-in for
// the paper's Synopsys Power Compiler flow).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/units.hpp"
#include "gatelevel/gates.hpp"
#include "gatelevel/netlist.hpp"
#include "gatelevel/power_sim.hpp"
#include "gatelevel/switch_netlists.hpp"

namespace sfab::gatelevel {
namespace {

// Helper for the reset-replay test: a 2-level netlist, XOR(a, b) and
// INV(a) feeding an AND.
Netlist two_stage_netlist(NetId& a, NetId& b, NetId& out) {
  Netlist nl;
  a = nl.add_net("a");
  b = nl.add_net("b");
  nl.mark_input(a);
  nl.mark_input(b);
  const NetId x = nl.add_net("x");
  const NetId inv_a = nl.add_net("inv_a");
  out = nl.add_net("out");
  nl.add_gate(GateType::kXor2, {a, b}, x);
  nl.add_gate(GateType::kInv, {a}, inv_a);
  nl.add_gate(GateType::kAnd2, {x, inv_a}, out);
  nl.finalize();
  return nl;
}

// --- gate library ---------------------------------------------------------------

TEST(Gates, TruthTables) {
  EXPECT_TRUE(evaluate(GateType::kBuf, 0b1));
  EXPECT_FALSE(evaluate(GateType::kInv, 0b1));
  EXPECT_TRUE(evaluate(GateType::kInv, 0b0));
  EXPECT_TRUE(evaluate(GateType::kAnd2, 0b11));
  EXPECT_FALSE(evaluate(GateType::kAnd2, 0b01));
  EXPECT_TRUE(evaluate(GateType::kOr2, 0b01));
  EXPECT_FALSE(evaluate(GateType::kNand2, 0b11));
  EXPECT_TRUE(evaluate(GateType::kNor2, 0b00));
  EXPECT_TRUE(evaluate(GateType::kXor2, 0b01));
  EXPECT_FALSE(evaluate(GateType::kXor2, 0b11));
  // MUX2: {a, b, select}; select=0 -> a, select=1 -> b.
  EXPECT_FALSE(evaluate(GateType::kMux2, 0b010));  // s=0, b=1, a=0 -> a = 0
  EXPECT_TRUE(evaluate(GateType::kMux2, 0b110));   // s=1, b=1, a=0 -> b = 1
}

TEST(Gates, InputCounts) {
  EXPECT_EQ(input_count(GateType::kInv), 1u);
  EXPECT_EQ(input_count(GateType::kNand2), 2u);
  EXPECT_EQ(input_count(GateType::kMux2), 3u);
  EXPECT_EQ(input_count(GateType::kDff), 1u);
}

TEST(Gates, EnergiesArePositiveAndScale) {
  for (const auto type : {GateType::kInv, GateType::kXor2, GateType::kDff}) {
    const GateEnergy e = energy_of(type);
    EXPECT_GT(e.toggle_j, 0.0);
    const GateEnergy half = energy_of(type, 0.5);
    EXPECT_DOUBLE_EQ(half.toggle_j, 0.5 * e.toggle_j);
  }
  // Only DFFs burn idle (clock) energy.
  EXPECT_GT(energy_of(GateType::kDff).idle_j, 0.0);
  EXPECT_DOUBLE_EQ(energy_of(GateType::kInv).idle_j, 0.0);
}

// --- netlist engine ----------------------------------------------------------------

TEST(Netlist, CombinationalEvaluation) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.mark_input(a);
  nl.mark_input(b);
  const NetId x = nl.add_net("x");
  nl.add_gate(GateType::kXor2, {a, b}, x);
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kInv, {x}, y);
  nl.finalize();
  nl.reset();

  nl.step({true, false});
  EXPECT_TRUE(nl.value(x));
  EXPECT_FALSE(nl.value(y));
  nl.step({true, true});
  EXPECT_FALSE(nl.value(x));
  EXPECT_TRUE(nl.value(y));
}

TEST(Netlist, GatesEvaluateRegardlessOfInsertionOrder) {
  // Add the consumer before its producer: levelization must sort it out.
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_input(a);
  const NetId mid = nl.add_net("mid");
  const NetId out = nl.add_net("out");
  nl.add_gate(GateType::kInv, {mid}, out);  // consumer first
  nl.add_gate(GateType::kInv, {a}, mid);    // producer second
  nl.finalize();
  nl.reset();
  nl.step({true});
  EXPECT_FALSE(nl.value(mid));
  EXPECT_TRUE(nl.value(out));
}

TEST(Netlist, DffDelaysOneCycle) {
  Netlist nl;
  const NetId d = nl.add_net("d");
  nl.mark_input(d);
  const NetId q = nl.add_net("q");
  nl.add_gate(GateType::kDff, {d}, q);
  nl.finalize();
  nl.reset();

  nl.step({true});
  EXPECT_FALSE(nl.value(q));  // latched at the boundary, visible next cycle
  nl.step({false});
  EXPECT_TRUE(nl.value(q));
  nl.step({false});
  EXPECT_FALSE(nl.value(q));
}

TEST(Netlist, CombinationalCycleRejected) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_gate(GateType::kInv, {a}, b);
  nl.add_gate(GateType::kInv, {b}, a);
  EXPECT_THROW((void)nl.finalize(), std::logic_error);
}

TEST(Netlist, DffBreaksCycles) {
  // A ring through a DFF is sequential, not combinational: legal.
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId nq = nl.add_net("nq");
  nl.add_gate(GateType::kInv, {q}, nq);
  nl.add_gate(GateType::kDff, {nq}, q);
  EXPECT_NO_THROW(nl.finalize());
  nl.reset();
  // Toggle flip-flop: q alternates every cycle.
  nl.step({});
  const bool first = nl.value(q);
  nl.step({});
  EXPECT_NE(nl.value(q), first);
}

TEST(Netlist, UndrivenNetRejected) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId floating = nl.add_net("floating");
  nl.mark_input(a);
  const NetId out = nl.add_net("out");
  nl.add_gate(GateType::kAnd2, {a, floating}, out);
  EXPECT_THROW((void)nl.finalize(), std::logic_error);
}

TEST(Netlist, DoubleDriverRejected) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_input(a);
  const NetId out = nl.add_net("out");
  nl.add_gate(GateType::kInv, {a}, out);
  EXPECT_THROW((void)nl.add_gate(GateType::kBuf, {a}, out), std::invalid_argument);
}

TEST(Netlist, EnergyAccumulatesOnlyOnToggles) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_input(a);
  const NetId out = nl.add_net("out");
  nl.add_gate(GateType::kInv, {a}, out);
  nl.finalize();
  nl.reset();

  nl.step({false});  // INV output rises 0 -> 1: one toggle
  const double after_first = nl.energy_j();
  EXPECT_GT(after_first, 0.0);
  nl.step({false});  // steady input: no toggles
  EXPECT_DOUBLE_EQ(nl.energy_j(), after_first);
  nl.step({true});  // falls: one more toggle
  EXPECT_GT(nl.energy_j(), after_first);
  EXPECT_EQ(nl.toggles(), 2u);
}

// --- reset replay ----------------------------------------------------------------

TEST(Netlist, ResetReplaysIdenticalTogglesAndEnergy) {
  // Drive the same input sequence into two twin netlists, then reset one
  // and replay it: toggles, energy and the output net must match every
  // time.
  NetId a = 0, b = 0, out = 0;
  Netlist first = two_stage_netlist(a, b, out);
  Netlist second = two_stage_netlist(a, b, out);

  const bool seq[][2] = {{false, false}, {true, false}, {true, false},
                         {false, true},  {true, true},  {true, true},
                         {false, false}, {true, false}};
  for (const auto& in : seq) first.step({in[0], in[1]});
  for (const auto& in : seq) second.step({in[0], in[1]});
  EXPECT_EQ(first.toggles(), second.toggles());
  EXPECT_EQ(first.energy_j(), second.energy_j());
  EXPECT_EQ(first.value(out), second.value(out));

  // After reset() the replay gives the same totals as the first pass.
  const std::uint64_t toggles_once = first.toggles();
  const double energy_once = first.energy_j();
  first.reset();
  for (const auto& in : seq) first.step({in[0], in[1]});
  EXPECT_EQ(first.toggles(), toggles_once);
  EXPECT_EQ(first.energy_j(), energy_once);
}

// --- switch netlists -----------------------------------------------------------------

TEST(SwitchNetlists, CrosspointPassesDataWhenEnabled) {
  SwitchHarness h = build_crosspoint(4);
  EXPECT_EQ(h.bits_per_port, 4u);
  EXPECT_EQ(h.port_data.size(), 1u);
  EXPECT_GT(h.netlist.num_gates(), 0u);
}

TEST(SwitchNetlists, SizesLookLikeRealCircuits) {
  // Paper: "a few hundred gates to 10K gates". Our models are smaller but
  // must scale with width and port count.
  EXPECT_GT(build_banyan_switch(32).netlist.num_gates(),
            build_banyan_switch(8).netlist.num_gates());
  EXPECT_GT(build_mux(16, 8).netlist.num_gates(),
            build_mux(4, 8).netlist.num_gates());
  EXPECT_GT(build_sorter_switch(32).netlist.num_gates(), 100u);
}

TEST(SwitchNetlists, InvalidParams) {
  EXPECT_THROW((void)build_crosspoint(0), std::invalid_argument);
  EXPECT_THROW((void)build_mux(3, 8), std::invalid_argument);
  EXPECT_THROW((void)build_sorter_switch(8, 0), std::invalid_argument);
}

// --- characterization -------------------------------------------------------------------

TEST(Characterize, IdleStateCostsAlmostNothing) {
  SwitchHarness h = build_banyan_switch(8);
  const auto results = characterize(h, {0b00u}, {512, 16, 1});
  // Only DFF clock energy remains when no packets are present.
  EXPECT_LT(results[0].energy_per_bit_j, 10.0 * units::fJ);
}

TEST(Characterize, TwoActivePortsCostMoreButLessThanTwice) {
  // The structural property behind Table 1's input-vector dependence.
  SwitchHarness h = build_banyan_switch(8);
  const auto lut = characterize_two_port_lut(h, {4000, 64, 7});
  EXPECT_GT(lut[0b01], 0.0);
  EXPECT_NEAR(lut[0b01], lut[0b10], 0.35 * lut[0b01]);
  EXPECT_GT(lut[0b11], lut[0b01]);
  EXPECT_LT(lut[0b11], 2.0 * (lut[0b01] + lut[0b10]) / 2.0 * 1.2);
}

TEST(Characterize, SorterCostsMoreThanBanyanSwitch) {
  // The paper's switches are bit-serial, so its sorter premium comes from
  // the address comparator dominating a 1-bit datapath. Width 1 is the
  // faithful comparison; at wide parallel datapaths the comparator
  // amortizes away and the two circuits land within Monte-Carlo noise of
  // each other (the old width-8 form of this test passed on seed luck).
  SwitchHarness banyan = build_banyan_switch(1);
  SwitchHarness sorter = build_sorter_switch(1);
  const auto banyan_lut = characterize_two_port_lut(banyan, {3000, 64, 11});
  const auto sorter_lut = characterize_two_port_lut(sorter, {3000, 64, 11});
  EXPECT_GT(sorter_lut[0b11], banyan_lut[0b11]);
}

// --- engine selection: every engine measures the same sample -----------------

// The sample (lane population × steps) is fixed by the config; engines
// and kernels are processing choices only. Results must be bit-identical
// — not close, identical — across all of them, because the per-mask
// energy reduces from exact integer per-gate toggle counts in a canonical
// order.

/// Characterizes `build()`'s harness under every given mask with the given
/// engine and lane population and returns the per-bit energies.
template <typename BuildFn>
std::vector<double> characterize_with(BuildFn build,
                                      const std::vector<std::uint32_t>& masks,
                                      CharacterizeEngine engine,
                                      unsigned lanes) {
  SwitchHarness h = build();
  CharacterizationConfig cfg;
  cfg.cycles = 1500;
  cfg.warmup = 16;
  cfg.seed = 21;
  cfg.engine = engine;
  cfg.lanes = lanes;
  std::vector<double> out;
  for (const MaskEnergy& m : characterize(h, masks, cfg)) {
    out.push_back(m.energy_per_bit_j);
  }
  return out;
}

TEST(CharacterizeEngines, BitIdenticalAcrossEnginesAndBlockWidths) {
  struct Case {
    const char* name;
    SwitchHarness (*build)();
    std::vector<std::uint32_t> masks;
  };
  const Case cases[] = {
      // No idle mask here: a crosspoint has no DFFs, so mask 0 measures an
      // exact 0.0 in every engine (covered by the equality checks below).
      {"crosspoint", [] { return build_crosspoint(8); }, {0b1u}},
      {"banyan2x2", [] { return build_banyan_switch(8); },
       {0b00u, 0b01u, 0b10u, 0b11u}},
      {"sorter2x2", [] { return build_sorter_switch(8); }, {0b11u}},
      {"mux8", [] { return build_mux(8, 4); }, {0xFFu}},
  };
  // 192 lanes are three words, ragged against the 2-, 4- and 8-word
  // blocks the kernels specialize; 64 lanes are one word.
  for (const unsigned lanes : {192u, 64u}) {
    for (const Case& c : cases) {
      const auto scalar = characterize_with(c.build, c.masks,
                                            CharacterizeEngine::kScalar, lanes);
      const auto sliced = characterize_with(
          c.build, c.masks, CharacterizeEngine::kBitsliced, lanes);
      ASSERT_EQ(scalar.size(), c.masks.size());
      for (std::size_t m = 0; m < c.masks.size(); ++m) {
        EXPECT_GT(scalar[m], 0.0)
            << c.name << " lanes " << lanes << " mask " << c.masks[m];
        // Exact double equality is the contract, not a tolerance.
        EXPECT_EQ(sliced[m], scalar[m])
            << c.name << " lanes " << lanes << " mask " << c.masks[m];
      }
    }
  }
}

TEST(CharacterizeEngines, KernelChoiceDoesNotChangeResults) {
  for (const LaneKernel kernel :
       {LaneKernel::kPortable, LaneKernel::kAvx2, LaneKernel::kAvx512}) {
    if (!lane_kernel_available(kernel)) continue;
    SwitchHarness h1 = build_banyan_switch(8);
    SwitchHarness h2 = build_banyan_switch(8);
    CharacterizationConfig portable_cfg;
    portable_cfg.cycles = 1024;
    portable_cfg.seed = 5;
    portable_cfg.kernel = LaneKernel::kPortable;
    CharacterizationConfig kernel_cfg = portable_cfg;
    kernel_cfg.kernel = kernel;
    const auto a = characterize(h1, {0b11u}, portable_cfg);
    const auto b = characterize(h2, {0b11u}, kernel_cfg);
    EXPECT_EQ(a[0].energy_per_cycle_j, b[0].energy_per_cycle_j)
        << to_string(kernel);
  }
}

TEST(CharacterizeEngines, DeterministicUnderRepeatedRuns) {
  for (const CharacterizeEngine engine :
       {CharacterizeEngine::kBitsliced, CharacterizeEngine::kScalar}) {
    CharacterizationConfig cfg;
    cfg.cycles = 800;
    cfg.warmup = 8;
    cfg.seed = 77;
    cfg.engine = engine;
    SwitchHarness h1 = build_banyan_switch(8);
    const auto first = characterize(h1, {0b01u, 0b11u}, cfg);
    SwitchHarness h2 = build_banyan_switch(8);
    const auto second = characterize(h2, {0b01u, 0b11u}, cfg);
    for (std::size_t m = 0; m < first.size(); ++m) {
      EXPECT_EQ(first[m].energy_per_cycle_j, second[m].energy_per_cycle_j);
    }
  }
}

TEST(CharacterizeEngines, AllActiveMatchesFullMask) {
  // characterize_all_active is the >32-port escape hatch; on a small
  // harness it must agree exactly with the explicit all-ones mask.
  SwitchHarness h1 = build_mux(8, 4);
  SwitchHarness h2 = build_mux(8, 4);
  const CharacterizationConfig cfg{1000, 16, 3};
  const auto masked = characterize(h1, {0xFFu}, cfg);
  const MaskEnergy all = characterize_all_active(h2, cfg);
  EXPECT_EQ(all.energy_per_bit_j, masked[0].energy_per_bit_j);
  EXPECT_EQ(all.mask, 0xFFFFFFFFu);
}

TEST(CharacterizeEngines, OversizedLaneCountThrows) {
  SwitchHarness h = build_crosspoint(4);
  CharacterizationConfig too_many;
  too_many.lanes = 513;
  EXPECT_THROW((void)characterize(h, {0b1u}, too_many),
               std::invalid_argument);
}

TEST(CharacterizeEngines, OverflowingCycleBudgetsThrow) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // The ceil(cycles / lanes) rounding itself overflows at the very top of
  // the cycles range: the guard must throw, not wrap to a tiny sample.
  SwitchHarness cross = build_crosspoint(4);
  CharacterizationConfig top;
  top.cycles = kMax;
  EXPECT_THROW((void)characterize(cross, {0b1u}, top), std::overflow_error);

  // A representable lane-cycle total whose DFF idle product
  // (num_dffs * lane_cycles) overflows: caught at measurer construction
  // for both engines, before any simulation runs.
  SwitchHarness banyan = build_banyan_switch(8);
  CharacterizationConfig idle;
  idle.cycles = kMax / 2;
  EXPECT_THROW((void)characterize(banyan, {0b1u}, idle), std::overflow_error);
  CharacterizationConfig idle_scalar = idle;
  idle_scalar.engine = CharacterizeEngine::kScalar;
  EXPECT_THROW((void)characterize(banyan, {0b1u}, idle_scalar),
               std::overflow_error);

  // Just inside the guards, construction validates fine (run one tiny
  // budget to prove the path still works end to end).
  CharacterizationConfig small;
  small.cycles = 512;
  small.warmup = 4;
  EXPECT_GT(characterize(banyan, {0b1u}, small)[0].energy_per_cycle_j, 0.0);
}

TEST(CharacterizeEngines, ThreadCountInvariance) {
  // Masks are independent samples; the worker pool must be invisible in
  // the output — bit-identical, not merely close, at every thread count.
  struct Case {
    const char* name;
    SwitchHarness (*build)();
    std::vector<std::uint32_t> masks;
  };
  const Case cases[] = {
      {"crosspoint", [] { return build_crosspoint(8); }, {0b0u, 0b1u}},
      {"banyan2x2", [] { return build_banyan_switch(8); },
       {0b00u, 0b01u, 0b10u, 0b11u}},
      {"sorter2x2", [] { return build_sorter_switch(8); },
       {0b00u, 0b01u, 0b10u, 0b11u}},
      {"mux8", [] { return build_mux(8, 4); }, {0x0Fu, 0xFFu}},
  };
  for (const Case& c : cases) {
    for (const CharacterizeEngine engine :
         {CharacterizeEngine::kBitsliced, CharacterizeEngine::kScalar}) {
      CharacterizationConfig cfg;
      cfg.cycles = 700;
      cfg.warmup = 8;
      cfg.seed = 31;
      cfg.engine = engine;
      cfg.lanes = 128;
      cfg.threads = 1;
      SwitchHarness serial_h = c.build();
      const auto serial = characterize(serial_h, c.masks, cfg);
      for (const unsigned threads : {2u, 3u, 8u}) {
        cfg.threads = threads;
        SwitchHarness pooled_h = c.build();
        const auto pooled = characterize(pooled_h, c.masks, cfg);
        ASSERT_EQ(pooled.size(), serial.size());
        for (std::size_t m = 0; m < serial.size(); ++m) {
          EXPECT_EQ(pooled[m].mask, serial[m].mask) << c.name;
          EXPECT_EQ(pooled[m].energy_per_cycle_j, serial[m].energy_per_cycle_j)
              << c.name << " mask " << serial[m].mask << " threads "
              << threads;
          EXPECT_EQ(pooled[m].energy_per_bit_j, serial[m].energy_per_bit_j)
              << c.name << " mask " << serial[m].mask << " threads "
              << threads;
        }
      }
    }
  }
}

TEST(CharacterizeEngines, ThreadedCharacterizeValidatesInputsUpFront) {
  SwitchHarness h = build_mux(4, 4);
  CharacterizationConfig cfg;
  cfg.cycles = 200;
  cfg.threads = 4;
  // Invalid mask: rejected on the calling thread before workers spawn.
  EXPECT_THROW((void)characterize(h, {0x1u, 1u << 30}, cfg),
               std::invalid_argument);
  // Invalid config: the threaded path throws exactly what serial would.
  CharacterizationConfig bad = cfg;
  bad.lanes = 513;
  EXPECT_THROW((void)characterize(h, {0x1u, 0x3u}, bad),
               std::invalid_argument);
}

TEST(LaneKernelRegistry, Avx512RegistryIsConsistent) {
  EXPECT_EQ(to_string(LaneKernel::kAvx512), "avx512");
  if (lane_kernel_available(LaneKernel::kAvx512)) {
    EXPECT_EQ(resolve_lane_kernel(LaneKernel::kAvx512), LaneKernel::kAvx512);
    // kAuto prefers the widest ISA: with AVX-512 present it must win.
    EXPECT_EQ(resolve_lane_kernel(LaneKernel::kAuto), LaneKernel::kAvx512);
  } else {
    EXPECT_THROW((void)resolve_lane_kernel(LaneKernel::kAvx512),
                 std::invalid_argument);
  }
}

TEST(Characterize, MuxEnergyGrowsWithInputCount) {
  double previous = 0.0;
  for (const unsigned n : {4u, 8u, 16u}) {
    SwitchHarness h = build_mux(n, 8);
    // Drive all inputs (mask with every port active) — the realistic state
    // for a MUX aggregating a busy fabric.
    const std::uint32_t all = (n >= 32) ? 0xFFFFFFFFu : ((1u << n) - 1);
    const auto results = characterize(h, {all}, {2000, 64, 13});
    EXPECT_GT(results[0].energy_per_bit_j, previous);
    previous = results[0].energy_per_bit_j;
  }
}

TEST(Characterize, CrosspointIsTheCheapestSwitch) {
  SwitchHarness cross = build_crosspoint(8);
  SwitchHarness banyan = build_banyan_switch(8);
  const auto cross_e = characterize(cross, {0b1u}, {2000, 64, 17});
  const auto banyan_e = characterize(banyan, {0b01u}, {2000, 64, 17});
  EXPECT_LT(cross_e[0].energy_per_bit_j, banyan_e[0].energy_per_bit_j);
}

TEST(Characterize, WithinOrderOfMagnitudeOfTable1) {
  // The calibration contract of src/gatelevel/switch_netlists.hpp (Table 1
  // in shape, absolute values set by the cell-energy calibration): derived
  // values land within ~3x of the paper's Power Compiler numbers.
  SwitchHarness h = build_banyan_switch(8);
  const auto lut = characterize_two_port_lut(h, {4000, 64, 19});
  EXPECT_GT(lut[0b01], 1080.0 * units::fJ / 3.0);
  EXPECT_LT(lut[0b01], 1080.0 * units::fJ * 3.0);
}

TEST(Characterize, DeterministicForSameSeed) {
  SwitchHarness h1 = build_banyan_switch(8);
  SwitchHarness h2 = build_banyan_switch(8);
  const auto a = characterize(h1, {0b11u}, {1000, 32, 23});
  const auto b = characterize(h2, {0b11u}, {1000, 32, 23});
  EXPECT_DOUBLE_EQ(a[0].energy_per_cycle_j, b[0].energy_per_cycle_j);
}

TEST(Characterize, AllMasksHelper) {
  EXPECT_EQ(all_masks(2).size(), 4u);
  EXPECT_EQ(all_masks(4).size(), 16u);
  EXPECT_THROW((void)all_masks(24), std::invalid_argument);
}

}  // namespace
}  // namespace sfab::gatelevel
