// Bit-identity regression against the pre-arena engine.
//
// No rework of either packet engine may change a single bit of any
// measurement: these golden values were recorded by running the first
// engine (commit 4a5196b) on the configs below, with doubles captured as
// hexfloats. The two 128-port goldens were recorded later, at commit
// d270e6b rather than 4a5196b: they pin the reference engine above the
// packet engine's 64 ports. Each golden up to 64 ports is asserted through
// run_simulation (the packet engine) and through run_reference_simulation;
// the 128-port ones through run_reference_simulation only, since
// run_simulation rejects more than 64 ports.
// Every assertion is an exact comparison — EXPECT_EQ on doubles is
// deliberate. If an optimization legitimately needs to change simulation
// results, that is a behavioral change to be made explicitly, not a
// by-product of performance work.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "fabric/factory.hpp"
#include "router/router.hpp"
#include "sim/simulation.hpp"

namespace sfab {
namespace {

struct Golden {
  std::string_view name;
  std::uint64_t delivered_words;
  std::uint64_t delivered_packets;
  std::uint64_t input_queue_drops;
  double egress_throughput;
  double power_w;
  double mean_packet_latency_cycles;
};

// Recorded from the seed engine, except the two 128-port rows; see
// config_named for the matching configs.
constexpr Golden kGoldens[] = {
    {"crossbar_fifo_uniform", 62573ull, 3913ull, 0ull, 0x1.f495810624dd3p-2,
     0x1.35e965a87d958p-2, 0x1.ep+3},
    {"banyan_fifo_overload", 30123ull, 1883ull, 1677ull, 0x1.e1f7ced916873p-2,
     0x1.ecb5cfa84b0b3p+0, 0x1.62860cc794533p+4},
    {"crossbar_voq_hot", 58900ull, 3683ull, 0ull, 0x1.d733333333333p-1,
     0x1.23baed35a5fb3p-3, 0x1.ep+3},
    {"batcher_bursty", 26105ull, 1633ull, 0ull, 0x1.a1ae147ae147bp-2,
     0x1.727ac5a749e93p-3, 0x1.7p+4},
    {"mesh_hotspot_voq", 31244ull, 1951ull, 0ull, 0x1.f3e76c8b43958p-3,
     0x1.6111a84e5c1e4p+0, 0x1.5012e519d96c4p+4},
    {"fullyconn_bitrev", 88664ull, 5540ull, 0ull, 0x1.62a7ef9db22d1p-1,
     0x1.4e5d8e7d28052p-2, 0x1.ep+3},
    // Recorded at commit d270e6b (see the header comment).
    {"banyan_fifo_128", 312729ull, 19541ull, 34782ull, 0x1.38ba9fbe76c8bp-2,
     0x1.19eb0cf0b5888p+8, 0x1.133c1107e652ap+5},
    {"crossbar_voq_128", 910804ull, 56939ull, 0ull, 0x1.c766e978d4fdfp-1,
     0x1.1a1468479ba46p+5, 0x1.ep+3},
};

SimConfig config_named(std::string_view name) {
  SimConfig base;
  base.arch = Architecture::kCrossbar;
  base.ports = 16;
  base.offered_load = 0.5;
  base.warmup_cycles = 1'000;
  base.measure_cycles = 8'000;
  base.seed = 42;

  if (name == "crossbar_fifo_uniform") return base;
  if (name == "banyan_fifo_overload") {
    base.arch = Architecture::kBanyan;
    base.ports = 8;
    base.offered_load = 0.9;
    base.ingress_queue_packets = 8;
    return base;
  }
  if (name == "crossbar_voq_hot") {
    base.scheme = RouterScheme::kVoq;
    base.offered_load = 0.95;
    base.ports = 8;
    return base;
  }
  if (name == "batcher_bursty") {
    base.arch = Architecture::kBatcherBanyan;
    base.pattern = TrafficPatternKind::kBursty;
    base.ports = 8;
    base.offered_load = 0.4;
    return base;
  }
  if (name == "mesh_hotspot_voq") {
    base.arch = Architecture::kMesh;
    base.pattern = TrafficPatternKind::kHotspot;
    base.payload = PayloadKind::kAlternating;
    base.scheme = RouterScheme::kVoq;
    base.offered_load = 0.3;
    return base;
  }
  if (name == "fullyconn_bitrev") {
    base.arch = Architecture::kFullyConnected;
    base.pattern = TrafficPatternKind::kBitReversal;
    base.offered_load = 0.7;
    return base;
  }
  if (name == "banyan_fifo_128") {
    base.arch = Architecture::kBanyan;
    base.ports = 128;
    base.offered_load = 0.9;
    return base;
  }
  if (name == "crossbar_voq_128") {
    base.scheme = RouterScheme::kVoq;
    base.ports = 128;
    base.offered_load = 0.9;
    return base;
  }
  throw std::logic_error("unknown golden config");
}

void expect_golden(const SimResult& r, const Golden& golden) {
  EXPECT_EQ(r.delivered_words, golden.delivered_words);
  EXPECT_EQ(r.delivered_packets, golden.delivered_packets);
  EXPECT_EQ(r.input_queue_drops, golden.input_queue_drops);
  EXPECT_EQ(r.egress_throughput, golden.egress_throughput);
  EXPECT_EQ(r.power_w, golden.power_w);
  EXPECT_EQ(r.mean_packet_latency_cycles, golden.mean_packet_latency_cycles);
}

TEST(BitIdentity, ArenaEngineReproducesSeedEngineExactly) {
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(std::string(golden.name));
    const SimConfig config = config_named(golden.name);
    if (config.ports > 64) {
      try {
        (void)run_simulation(config);
        ADD_FAILURE() << "run_simulation accepted " << config.ports
                      << " ports";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind("ports ", 0), 0u) << e.what();
      }
    } else {
      SCOPED_TRACE("run_simulation");
      expect_golden(run_simulation(config), golden);
    }
    {
      SCOPED_TRACE("run_reference_simulation");
      expect_golden(run_reference_simulation(config), golden);
    }
  }
}

TEST(BitIdentity, StepAndRunPathsAgree) {
  // The reference Router driven by run() and by per-cycle step() must
  // produce identical measurements, and the golden must hold.
  const SimConfig config = config_named("crossbar_fifo_uniform");
  const SimResult fast = run_simulation(config);
  FabricConfig fc;
  fc.ports = config.ports;
  Router by_run(make_fabric(config.arch, fc),
                TrafficGenerator::uniform_bernoulli(
                    config.ports, config.offered_load, config.packet_words,
                    config.seed, config.payload));
  Router by_step(make_fabric(config.arch, fc),
                 TrafficGenerator::uniform_bernoulli(
                     config.ports, config.offered_load, config.packet_words,
                     config.seed, config.payload));
  by_run.run(5'000);
  for (int c = 0; c < 5'000; ++c) by_step.step();
  EXPECT_EQ(by_run.egress().words_delivered(),
            by_step.egress().words_delivered());
  EXPECT_EQ(by_run.egress().packets_delivered(),
            by_step.egress().packets_delivered());
  EXPECT_EQ(by_run.fabric().ledger().total(),
            by_step.fabric().ledger().total());
  EXPECT_EQ(fast.delivered_words, 62573ull);  // and the golden again
}

}  // namespace
}  // namespace sfab
