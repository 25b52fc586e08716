// Cross-module integration tests: the simulator against the analytical
// model, and the paper's headline observations (section 6) as assertions.
#include <gtest/gtest.h>

#include "power/analytical.hpp"
#include "sim/simulation.hpp"

namespace sfab {
namespace {

SimConfig base(Architecture arch, unsigned ports, double load,
               std::uint64_t seed = 11) {
  SimConfig c;
  c.arch = arch;
  c.ports = ports;
  c.offered_load = load;
  c.warmup_cycles = 2'000;
  c.measure_cycles = 15'000;
  c.seed = seed;
  return c;
}

// --- simulator vs closed forms -------------------------------------------------------

TEST(SimVsAnalytical, MeasuredEnergyPerBitWithinWorstCaseBound) {
  // Random payload toggles ~half the bits and paths are a mix of straight
  // and crossing, so the measured energy per bit must land between the
  // zero-toggle floor (switch terms only) and the worst-case closed form.
  const AnalyticalModel model;
  for (const unsigned ports : {4u, 8u, 16u, 32u}) {
    const double crossbar =
        run_simulation(base(Architecture::kCrossbar, ports, 0.3))
            .energy_per_bit_j;
    EXPECT_LT(crossbar, model.crossbar_bit_energy(ports));
    EXPECT_GT(crossbar, 0.3 * model.crossbar_bit_energy(ports));

    const double fc =
        run_simulation(base(Architecture::kFullyConnected, ports, 0.3))
            .energy_per_bit_j;
    EXPECT_LT(fc, model.fully_connected_bit_energy(ports));
    EXPECT_GT(fc, 0.3 * model.fully_connected_bit_energy(ports));
  }
}

TEST(SimVsAnalytical, CrossbarMatchesAverageCaseModelClosely) {
  // With uniform random payload the toggle activity is exactly 0.5 in
  // expectation; the average-case closed form should match within a few
  // percent (header words and statistical noise account for the slack).
  const AnalyticalModel model;
  AnalyticalModel::AverageParams p;
  p.toggle_activity = 0.5;
  for (const unsigned ports : {8u, 16u}) {
    const double measured =
        run_simulation(base(Architecture::kCrossbar, ports, 0.3))
            .energy_per_bit_j;
    const double predicted = model.crossbar_avg_bit_energy(ports, p);
    EXPECT_NEAR(measured, predicted, 0.05 * predicted) << "N=" << ports;
  }
}

TEST(SimVsAnalytical, BanyanSitsBetweenUncongestedAndFullContention) {
  const AnalyticalModel model;
  const SimResult r = run_simulation(base(Architecture::kBanyan, 16, 0.4));
  EXPECT_GT(r.energy_per_bit_j,
            0.3 * model.banyan_bit_energy_no_contention(16));
  EXPECT_LT(r.energy_per_bit_j, model.banyan_bit_energy_full_contention(16));
}

// --- the paper's section 6 observations, as executable claims -------------------------

TEST(PaperObservations, Obs1BanyanPowerGrowsSuperlinearlyWithLoad) {
  // "the power consumption increases exponentially ... caused by the
  // buffer penalty". Throughput-normalized check: Banyan's energy per
  // delivered bit must grow strongly with load (a linear-power fabric has
  // constant energy per bit).
  const double low =
      run_simulation(base(Architecture::kBanyan, 16, 0.15)).energy_per_bit_j;
  const double high =
      run_simulation(base(Architecture::kBanyan, 16, 0.45)).energy_per_bit_j;
  EXPECT_GT(high / low, 2.0);
}

TEST(PaperObservations, Obs3OtherFabricsScaleNearlyLinearlyWithLoad) {
  // Linear power in throughput == flat energy per bit across loads.
  for (const Architecture arch :
       {Architecture::kCrossbar, Architecture::kFullyConnected,
        Architecture::kBatcherBanyan}) {
    const double low =
        run_simulation(base(arch, 16, 0.15)).energy_per_bit_j;
    const double high =
        run_simulation(base(arch, 16, 0.45)).energy_per_bit_j;
    EXPECT_NEAR(high / low, 1.0, 0.15) << to_string(arch);
  }
}

TEST(PaperObservations, Obs1BanyanHasCheapestDataPathAt32Ports) {
  // "in the 32x32 configuration, Banyan had the lowest power consumption
  // when the traffic throughput is less than 35%". The claim reproduces
  // exactly in the analytical model (test_analytical) and, in simulation,
  // for the data-path (switch + wire) power. The buffer component depends
  // on how many buffered words hit the shared SRAM — with Table 2's
  // datasheet-scale energies charged per buffered word, contention between
  // full-rate word streams already erases the Banyan's advantage at 10%
  // load; ROADMAP.md item 5 records the deviation and its numbers.
  const SimResult banyan = run_simulation(base(Architecture::kBanyan, 32, 0.1));
  const double banyan_path = banyan.switch_power_w + banyan.wire_power_w;
  for (const Architecture arch :
       {Architecture::kCrossbar, Architecture::kFullyConnected,
        Architecture::kBatcherBanyan}) {
    const SimResult rival = run_simulation(base(arch, 32, 0.1));
    EXPECT_LT(banyan_path, rival.switch_power_w + rival.wire_power_w)
        << to_string(arch);
  }
}

TEST(PaperObservations, Obs2FcCheaperThanBatcherBanyanGapNarrows) {
  // Compared on energy per delivered bit so that saturation effects at
  // high offered load cannot distort the ratio.
  double previous_gap = 1.0;
  for (const unsigned ports : {4u, 8u, 16u, 32u}) {
    const double fc =
        run_simulation(base(Architecture::kFullyConnected, ports, 0.4))
            .energy_per_bit_j;
    const double bb =
        run_simulation(base(Architecture::kBatcherBanyan, ports, 0.4))
            .energy_per_bit_j;
    EXPECT_LT(fc, bb) << "N=" << ports;
    const double gap = (bb - fc) / bb;
    EXPECT_LT(gap, previous_gap + 0.02) << "N=" << ports;
    previous_gap = gap;
  }
}

TEST(PaperObservations, BufferPenaltyDominatesBanyanAtHighLoad) {
  // Section 5.1: buffer accesses cost ~1000x a wire grid; at 50% load the
  // buffer component should dominate Banyan's power budget.
  const SimResult r = run_simulation(base(Architecture::kBanyan, 16, 0.5));
  EXPECT_GT(r.buffer_power_w, r.switch_power_w);
  EXPECT_GT(r.buffer_power_w, r.wire_power_w);
}

TEST(PaperObservations, PowerGrowsWithPortCountAtFixedLoad) {
  // Fig. 10's x-axis direction: every architecture burns more at 32 ports
  // than at 4 at 50% throughput.
  for (const Architecture arch : all_architectures()) {
    const double small = run_simulation(base(arch, 4, 0.5)).power_w;
    const double large = run_simulation(base(arch, 32, 0.5)).power_w;
    EXPECT_GT(large, small) << to_string(arch);
  }
}

// --- saturation (section 5.2's 58.6% input-queueing bound) ---------------------------

TEST(Saturation, UniformTrafficSaturatesNearTheoreticalHolLimit) {
  // Offered load 1.0 on a crossbar: egress throughput should approach the
  // classic input-queued HOL bound 2 - sqrt(2) = 0.586 for larger N
  // (finite N saturates somewhat higher; N=2 is 0.75).
  SimConfig c = base(Architecture::kCrossbar, 16, 1.0, 3);
  c.measure_cycles = 40'000;
  c.ingress_queue_packets = 16;
  const SimResult r = run_simulation(c);
  EXPECT_GT(r.egress_throughput, 0.55);
  EXPECT_LT(r.egress_throughput, 0.70);
}

TEST(Saturation, ThroughputNeverExceedsOffered) {
  for (const double load : {0.1, 0.3, 0.5}) {
    const SimResult r =
        run_simulation(base(Architecture::kCrossbar, 8, load));
    EXPECT_LE(r.egress_throughput, load * 1.05);
  }
}

// --- accounting ablation hooks ---------------------------------------------------------

TEST(Accounting, SingleAccessModeLowersBanyanPower) {
  SimConfig rw = base(Architecture::kBanyan, 16, 0.5);
  SimConfig w_only = rw;
  w_only.charge_buffer_read_and_write = false;
  const SimResult a = run_simulation(rw);
  const SimResult b = run_simulation(w_only);
  EXPECT_GT(a.buffer_power_w, b.buffer_power_w);
  EXPECT_NEAR(a.buffer_power_w / b.buffer_power_w, 2.0, 0.01);
}

TEST(Accounting, BiggerNodeBuffersRaiseAccessEnergy) {
  SimConfig small = base(Architecture::kBanyan, 16, 0.5);
  SimConfig big = small;
  big.buffer_words_per_switch = 1024;  // 32 Kbit per switch
  const SimResult a = run_simulation(small);
  const SimResult b = run_simulation(big);
  // Same contention, costlier per access (larger shared SRAM).
  EXPECT_GT(b.buffer_power_w, a.buffer_power_w);
}

TEST(PacketLength, LongerPacketsAmortizeNothingInsideTheFabric) {
  // Fabric energy is per word: halving packet count at double length keeps
  // power roughly constant at equal word load.
  SimConfig short_packets = base(Architecture::kCrossbar, 8, 0.4);
  short_packets.packet_words = 8;
  SimConfig long_packets = short_packets;
  long_packets.packet_words = 32;
  const double a = run_simulation(short_packets).power_w;
  const double b = run_simulation(long_packets).power_w;
  EXPECT_NEAR(a / b, 1.0, 0.15);
}

}  // namespace
}  // namespace sfab
