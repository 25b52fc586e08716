// Tests for the versioned switch-energy LUT artifact
// (power/lut_artifact.hpp): ladder determinism, hexfloat-exact JSON
// round-trip, loader validation, and the analytical model consuming
// measured coefficients.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "power/analytical.hpp"
#include "power/lut_artifact.hpp"
#include "power/technology.hpp"

namespace sfab {
namespace {

/// A ladder small enough for unit tests: full preset axis, MUX to 8.
LutBuildOptions tiny_options() {
  LutBuildOptions options;
  options.generator.cycles = 2048;
  options.generator.warmup = 8;
  options.generator.lanes = 128;
  options.generator.bits_per_port = 4;
  options.max_mux_inputs = 8;
  options.threads = 2;
  return options;
}

TEST(LutArtifact, BuildCoversEveryPresetAndLadderStep) {
  const LutArtifact artifact = build_lut_artifact(tiny_options());
  ASSERT_EQ(artifact.presets.size(),
            TechnologyParams::preset_names().size());
  for (const auto& [name, tables] : artifact.presets) {
    SCOPED_TRACE(name);
    EXPECT_EQ(tables.crosspoint.size(), 2u);
    EXPECT_EQ(tables.banyan2x2.size(), 4u);
    EXPECT_EQ(tables.sorter2x2.size(), 4u);
    ASSERT_EQ(tables.mux_inputs.size(), 2u);  // 4, 8
    EXPECT_EQ(tables.mux_inputs[0], 4u);
    EXPECT_EQ(tables.mux_inputs[1], 8u);
    // Idle states measure zero; active states measure positive energy.
    EXPECT_EQ(tables.crosspoint[0], 0.0);
    EXPECT_GT(tables.crosspoint[1], 0.0);
    EXPECT_GT(tables.banyan2x2[3], tables.banyan2x2[1]);
    EXPECT_GT(tables.sorter2x2[3], 0.0);
    EXPECT_GT(tables.mux_per_bit_j[1], tables.mux_per_bit_j[0]);
    EXPECT_EQ(tables.energy_scale,
              TechnologyParams::preset(name).energy_scale_vs_reference());
  }
  // The preset axis actually changes the coefficients.
  EXPECT_NE(artifact.presets[0].second.banyan2x2[3],
            artifact.presets[1].second.banyan2x2[3]);
}

TEST(LutArtifact, BuildIsDeterministicAcrossThreadCounts) {
  // The tiny ladder is 15 tasks: 3 presets x (2 MUX rungs + 3 tables).
  // Neither 4 nor 7 workers divides that, so the last round is ragged.
  LutBuildOptions serial = tiny_options();
  serial.threads = 1;
  std::ostringstream sa;
  write_lut_artifact(sa, build_lut_artifact(serial));
  for (const unsigned threads : {4u, 7u}) {
    LutBuildOptions pooled = tiny_options();
    pooled.threads = threads;
    std::ostringstream sb;
    write_lut_artifact(sb, build_lut_artifact(pooled));
    // Byte-equal serialization — the property the CI drift gate relies on.
    EXPECT_EQ(sa.str(), sb.str()) << threads << " workers";
  }
}

TEST(LutArtifact, JsonRoundTripIsHexfloatExact) {
  const LutArtifact artifact = build_lut_artifact(tiny_options());
  std::stringstream stream;
  write_lut_artifact(stream, artifact);
  const LutArtifact parsed = parse_lut_artifact(stream);

  EXPECT_EQ(parsed.generator.cycles, artifact.generator.cycles);
  EXPECT_EQ(parsed.generator.warmup, artifact.generator.warmup);
  EXPECT_EQ(parsed.generator.seed, artifact.generator.seed);
  EXPECT_EQ(parsed.generator.lanes, artifact.generator.lanes);
  EXPECT_EQ(parsed.generator.bits_per_port, artifact.generator.bits_per_port);
  ASSERT_EQ(parsed.presets.size(), artifact.presets.size());
  for (std::size_t p = 0; p < artifact.presets.size(); ++p) {
    EXPECT_EQ(parsed.presets[p].first, artifact.presets[p].first);
    const auto& got = parsed.presets[p].second;
    const auto& want = artifact.presets[p].second;
    EXPECT_EQ(got.energy_scale, want.energy_scale);
    EXPECT_EQ(got.crosspoint, want.crosspoint);  // exact doubles
    EXPECT_EQ(got.banyan2x2, want.banyan2x2);
    EXPECT_EQ(got.sorter2x2, want.sorter2x2);
    EXPECT_EQ(got.mux_inputs, want.mux_inputs);
    EXPECT_EQ(got.mux_per_bit_j, want.mux_per_bit_j);
  }

  // Re-serializing the parsed artifact is byte-identical.
  std::ostringstream again;
  write_lut_artifact(again, parsed);
  std::ostringstream original;
  write_lut_artifact(original, artifact);
  EXPECT_EQ(again.str(), original.str());
}

TEST(LutArtifact, ParserRejectsDamagedInput) {
  const LutArtifact artifact = build_lut_artifact(tiny_options());
  std::ostringstream stream;
  write_lut_artifact(stream, artifact);
  const std::string good = stream.str();

  const auto parse_text = [](std::string text) {
    std::istringstream in(std::move(text));
    return parse_lut_artifact(in);
  };
  EXPECT_THROW((void)parse_text(""), std::invalid_argument);
  EXPECT_THROW((void)parse_text(good.substr(0, good.size() / 2)),
               std::invalid_argument);
  EXPECT_THROW((void)parse_text(good + "x"), std::invalid_argument);

  std::string wrong_schema = good;
  wrong_schema.replace(wrong_schema.find("sfab-switch-lut"),
                       std::string("sfab-switch-lut").size(), "other-schema!!");
  EXPECT_THROW((void)parse_text(wrong_schema), std::invalid_argument);

  std::string wrong_version = good;
  wrong_version.replace(wrong_version.find("\"schema_version\": 1"),
                        std::string("\"schema_version\": 1").size(),
                        "\"schema_version\": 9");
  EXPECT_THROW((void)parse_text(wrong_version), std::invalid_argument);
}

TEST(LutArtifact, SwitchTablesFeedTheAnalyticalModel) {
  const LutArtifact artifact = build_lut_artifact(tiny_options());
  for (const std::string& name : TechnologyParams::preset_names()) {
    SCOPED_TRACE(name);
    const SwitchEnergyTables tables = artifact.switch_tables(name);
    const auto* measured = artifact.find(name);
    ASSERT_NE(measured, nullptr);
    EXPECT_EQ(tables.crosspoint.entries(), measured->crosspoint);
    EXPECT_EQ(tables.banyan2x2.entries(), measured->banyan2x2);
    EXPECT_EQ(tables.sorter2x2.entries(), measured->sorter2x2);
    EXPECT_EQ(tables.mux_energy_per_bit(4), measured->mux_per_bit_j[0]);
    EXPECT_EQ(tables.mux_energy_per_bit(8), measured->mux_per_bit_j[1]);

    const AnalyticalModel model =
        AnalyticalModel::from_lut_artifact(artifact, name);
    // The model's coefficients are the measured ones, not Table 1.
    EXPECT_EQ(model.switches().banyan2x2.entries(), measured->banyan2x2);
    EXPECT_EQ(model.technology().feature_um,
              TechnologyParams::preset(name).feature_um);
    EXPECT_GT(model.crossbar_bit_energy(8), 0.0);
    EXPECT_GT(model.banyan_bit_energy_no_contention(8), 0.0);
  }
  EXPECT_THROW((void)artifact.switch_tables("7nm"), std::out_of_range);
  EXPECT_THROW((void)AnalyticalModel::from_lut_artifact(artifact, "7nm"),
               std::exception);
}

TEST(LutArtifact, CommittedArtifactLoadsAndMatchesSchema) {
  // The shipped ground truth: loads, covers every preset, ladder to 1024.
  // SFAB_SOURCE_DIR is the checkout root, passed in by CMakeLists.txt, so
  // the test finds the artifact from any build directory.
  const LutArtifact artifact =
      load_lut_artifact(SFAB_SOURCE_DIR "/power/luts/switch_luts.json");
  ASSERT_EQ(artifact.presets.size(),
            TechnologyParams::preset_names().size());
  for (const std::string& name : TechnologyParams::preset_names()) {
    const auto* tables = artifact.find(name);
    ASSERT_NE(tables, nullptr) << name;
    EXPECT_EQ(tables->mux_inputs.back(), 1024u) << name;
    const AnalyticalModel model =
        AnalyticalModel::from_lut_artifact(artifact, name);
    EXPECT_GT(model.switches().mux_energy_per_bit(1024), 0.0);
  }
}

}  // namespace
}  // namespace sfab
