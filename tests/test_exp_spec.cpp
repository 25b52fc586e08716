// Tests for SweepSpec grid expansion and deterministic seed derivation.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "exp/spec.hpp"

namespace sfab {
namespace {

TEST(DeriveStreamSeed, MatchesSplitMixSequence) {
  // Stream s is the (s+1)-th output of the SplitMix64 sequence at the base.
  std::uint64_t state = 42;
  for (std::uint64_t s = 0; s < 8; ++s) {
    EXPECT_EQ(derive_stream_seed(42, s), splitmix64_next(state)) << s;
  }
}

TEST(DeriveStreamSeed, DistinctStreamsDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 256; ++s) {
    seeds.insert(derive_stream_seed(7, s));
  }
  EXPECT_EQ(seeds.size(), 256u);
}

TEST(SweepSpec, EmptySpecIsOneRunOfBase) {
  SweepSpec spec;
  spec.base.arch = Architecture::kBanyan;
  spec.base.ports = 8;
  EXPECT_EQ(spec.grid_size(), 1u);
  EXPECT_EQ(spec.run_count(), 1u);
  const auto plans = spec.expand();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].config.arch, Architecture::kBanyan);
  EXPECT_EQ(plans[0].config.ports, 8u);
  EXPECT_EQ(plans[0].replicate, 0u);
  // Even a single run gets the derived seed, never base.seed verbatim.
  EXPECT_EQ(plans[0].config.seed,
            derive_stream_seed(spec.base.seed, 0));
}

TEST(SweepSpec, RunCountIsAxisProductTimesReplicates) {
  SweepSpec spec;
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_ports({4, 8, 16})
      .over_loads({0.1, 0.2, 0.3, 0.4})
      .with_replicates(5);
  EXPECT_EQ(spec.grid_size(), 2u * 3u * 4u);
  EXPECT_EQ(spec.run_count(), 2u * 3u * 4u * 5u);
  EXPECT_EQ(spec.expand().size(), spec.run_count());
}

TEST(SweepSpec, ExpansionOrderReplicatesInnermostLoadsNext) {
  SweepSpec spec;
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_loads({0.1, 0.2})
      .with_replicates(2);
  const auto plans = spec.expand();
  ASSERT_EQ(plans.size(), 8u);
  // arch outermost, then load, replicate fastest.
  EXPECT_EQ(plans[0].config.arch, Architecture::kCrossbar);
  EXPECT_DOUBLE_EQ(plans[0].config.offered_load, 0.1);
  EXPECT_EQ(plans[0].replicate, 0u);
  EXPECT_EQ(plans[1].replicate, 1u);
  EXPECT_DOUBLE_EQ(plans[2].config.offered_load, 0.2);
  EXPECT_EQ(plans[4].config.arch, Architecture::kBanyan);
  EXPECT_DOUBLE_EQ(plans[4].config.offered_load, 0.1);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].index, i);
  }
}

TEST(SweepSpec, PairedSeedsAcrossGridPoints) {
  // Replicate r shares its derived seed at every grid point, so sweeps are
  // paired: two architectures at the same load see identical arrivals.
  SweepSpec spec;
  spec.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_loads({0.1, 0.3, 0.5})
      .with_replicates(3);
  const auto plans = spec.expand();
  for (const RunPlan& plan : plans) {
    EXPECT_EQ(plan.config.seed,
              derive_stream_seed(spec.base.seed, plan.replicate));
  }
}

TEST(SweepSpec, SeedsIndependentOfGridShape) {
  SweepSpec narrow;
  narrow.over_loads({0.2});
  SweepSpec wide;
  wide.over_architectures({Architecture::kCrossbar, Architecture::kBanyan})
      .over_ports({4, 8})
      .over_loads({0.2, 0.4});
  EXPECT_EQ(narrow.expand()[0].config.seed, wide.expand()[0].config.seed);
}

TEST(SweepSpec, TechAxisResolvesPresetAndRescalesSwitches) {
  SweepSpec spec;
  spec.over_tech_nodes({"0.18um", "0.13um"});
  const auto plans = spec.expand();
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_DOUBLE_EQ(plans[0].config.tech.feature_um, 0.18);
  EXPECT_DOUBLE_EQ(plans[1].config.tech.feature_um, 0.13);
  // Smaller node, lower Vdd -> cheaper switch LUTs.
  EXPECT_LT(plans[1].config.switches.mux_energy_per_bit(8),
            plans[0].config.switches.mux_energy_per_bit(8));
}

TEST(SweepSpec, UnknownTechPresetThrows) {
  SweepSpec spec;
  spec.over_tech_nodes({"7nm"});
  EXPECT_THROW((void)spec.expand(), std::invalid_argument);
}

TEST(SweepSpec, ZeroReplicatesRejected) {
  SweepSpec spec;
  spec.replicates = 0;
  EXPECT_THROW((void)spec.expand(), std::invalid_argument);
}

TEST(SweepSpec, ExpandValidatesEveryPlan) {
  // One invalid grid point fails the whole expansion, naming its field:
  // here the 8-port mesh among valid crossbar points.
  SweepSpec spec;
  spec.over_architectures({Architecture::kCrossbar, Architecture::kMesh})
      .over_ports({4, 8});
  try {
    (void)spec.expand();
    ADD_FAILURE() << "an 8-port mesh expanded";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("ports 8 ", 0), 0u) << e.what();
  }
  spec.over_ports({4, 16});
  EXPECT_EQ(spec.expand().size(), 4u);
}

TEST(SweepSpec, SchemeAndAccountingAxesResolve) {
  SweepSpec spec;
  spec.over_schemes({RouterScheme::kFifo, RouterScheme::kVoq})
      .over_charge_read_and_write({true, false});
  const auto plans = spec.expand();
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_EQ(plans[0].config.scheme, RouterScheme::kFifo);
  EXPECT_TRUE(plans[0].config.charge_buffer_read_and_write);
  EXPECT_FALSE(plans[1].config.charge_buffer_read_and_write);
  EXPECT_EQ(plans[2].config.scheme, RouterScheme::kVoq);
}

}  // namespace
}  // namespace sfab
