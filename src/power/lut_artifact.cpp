#include "power/lut_artifact.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/task_pool.hpp"
#include "gatelevel/power_sim.hpp"
#include "power/technology.hpp"

namespace sfab {
namespace {

// --- hexfloat round-trip -----------------------------------------------------

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_hexfloat(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("lut artifact: empty float");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno != 0) {
    throw std::invalid_argument("lut artifact: bad float '" + s + "'");
  }
  return v;
}

// --- minimal JSON reader -----------------------------------------------------
//
// The artifact format is produced by write_lut_artifact below, so this
// parser only needs the JSON subset we emit: objects, arrays, strings
// (no escapes beyond \" and \\), unsigned integers, and whitespace. It is
// strict — anything else is a parse error, never a silent default.

struct JsonValue {
  enum class Kind { kString, kUint, kArray, kObject } kind = Kind::kUint;
  std::string str;
  std::uint64_t num = 0;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    if (kind != Kind::kObject) {
      throw std::invalid_argument("lut artifact: expected object for '" +
                                  key + "'");
    }
    for (const auto& [k, v] : obj) {
      if (k == key) return v;
    }
    throw std::invalid_argument("lut artifact: missing key '" + key + "'");
  }
  [[nodiscard]] const std::string& as_string() const {
    if (kind != Kind::kString) {
      throw std::invalid_argument("lut artifact: expected string");
    }
    return str;
  }
  [[nodiscard]] std::uint64_t as_uint() const {
    if (kind != Kind::kUint) {
      throw std::invalid_argument("lut artifact: expected integer");
    }
    return num;
  }
  [[nodiscard]] const std::vector<JsonValue>& as_array() const {
    if (kind != Kind::kArray) {
      throw std::invalid_argument("lut artifact: expected array");
    }
    return arr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("lut artifact: JSON error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c >= '0' && c <= '9') return uint_value();
    fail("unexpected token");
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = string_value();
      expect(':');
      v.obj.emplace_back(std::move(key.str), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        if (e != '"' && e != '\\') fail("unsupported escape");
        v.str.push_back(e);
        continue;
      }
      v.str.push_back(c);
    }
  }

  JsonValue uint_value() {
    peek();  // position on the first digit
    JsonValue v;
    v.kind = JsonValue::Kind::kUint;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    const std::string digits = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    v.num = std::strtoull(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size() || errno != 0) {
      fail("bad integer '" + digits + "'");
    }
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// --- JSON writer helpers -----------------------------------------------------

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

void write_double_array(std::ostream& out, const char* key,
                        const std::vector<double>& values,
                        const char* indent) {
  out << indent << '"' << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out << ", ";
    write_string(out, hexfloat(values[i]));
  }
  out << ']';
}

std::vector<double> read_double_array(const JsonValue& node,
                                      const std::string& key,
                                      std::size_t expected_size) {
  std::vector<double> out;
  for (const JsonValue& v : node.at(key).as_array()) {
    out.push_back(parse_hexfloat(v.as_string()));
  }
  if (expected_size != 0 && out.size() != expected_size) {
    throw std::invalid_argument("lut artifact: '" + key + "' must have " +
                                std::to_string(expected_size) + " entries");
  }
  return out;
}

// --- ladder ------------------------------------------------------------------

/// The generator's sample, characterized single-threaded (the default).
gatelevel::CharacterizationConfig config_of(
    const LutArtifact::Generator& generator) {
  gatelevel::CharacterizationConfig cfg;
  cfg.cycles = generator.cycles;
  cfg.warmup = generator.warmup;
  cfg.seed = generator.seed;
  cfg.lanes = generator.lanes;
  return cfg;
}

/// Per-bit LUT of a 2-port harness builder at one preset, occupancy-indexed.
std::vector<double> two_port_lut(gatelevel::SwitchHarness harness,
                                 double energy_scale,
                                 const gatelevel::CharacterizationConfig& cfg) {
  harness.netlist.set_energy_scale(energy_scale);
  return gatelevel::characterize_two_port_lut(harness, cfg);
}

}  // namespace

const LutArtifact::PresetTables* LutArtifact::find(
    const std::string& preset) const {
  for (const auto& [name, tables] : presets) {
    if (name == preset) return &tables;
  }
  return nullptr;
}

SwitchEnergyTables LutArtifact::switch_tables(const std::string& preset) const {
  const PresetTables* t = find(preset);
  if (t == nullptr) {
    throw std::out_of_range("lut artifact: no tables for preset '" + preset +
                            "'");
  }
  SwitchEnergyTables out;
  out.crosspoint = VectorIndexedLut(t->crosspoint);
  out.banyan2x2 = VectorIndexedLut(t->banyan2x2);
  out.sorter2x2 = VectorIndexedLut(t->sorter2x2);
  std::vector<std::pair<double, double>> points;
  points.reserve(t->mux_inputs.size());
  for (std::size_t i = 0; i < t->mux_inputs.size(); ++i) {
    points.emplace_back(static_cast<double>(t->mux_inputs[i]),
                        t->mux_per_bit_j[i]);
  }
  out.mux_by_inputs = PiecewiseLinear(std::move(points));
  return out;
}

LutArtifact build_lut_artifact(const LutBuildOptions& options) {
  if (options.max_mux_inputs < 4 ||
      (options.max_mux_inputs & (options.max_mux_inputs - 1)) != 0) {
    throw std::invalid_argument(
        "build_lut_artifact: max_mux_inputs must be a power of two >= 4");
  }
  LutArtifact artifact;
  artifact.generator = options.generator;
  const std::vector<std::string>& names =
      options.presets.empty() ? TechnologyParams::preset_names()
                              : options.presets;
  std::vector<unsigned> rungs;
  for (unsigned n = 4; n <= options.max_mux_inputs; n *= 2) {
    rungs.push_back(n);
  }
  for (const std::string& name : names) {
    LutArtifact::PresetTables tables;
    tables.energy_scale =
        TechnologyParams::preset(name).energy_scale_vs_reference();
    tables.mux_inputs = rungs;
    tables.mux_per_bit_j.assign(rungs.size(), 0.0);
    artifact.presets.emplace_back(name, std::move(tables));
  }

  // One task per (preset, table) and per (preset, MUX rung), the largest
  // rungs first so the longest tasks do not start last. Each task runs one
  // single-threaded characterization and writes only its own slot, so the
  // artifact is the same at any worker count.
  const gatelevel::CharacterizationConfig cfg = config_of(options.generator);
  const unsigned bits = options.generator.bits_per_port;
  std::vector<std::function<void()>> tasks;
  for (std::size_t rung = rungs.size(); rung-- > 0;) {
    for (auto& preset : artifact.presets) {
      LutArtifact::PresetTables* const t = &preset.second;
      tasks.emplace_back([&, rung, t] {
        gatelevel::SwitchHarness mux = gatelevel::build_mux(rungs[rung], bits);
        mux.netlist.set_energy_scale(t->energy_scale);
        t->mux_per_bit_j[rung] =
            gatelevel::characterize_all_active(mux, cfg).energy_per_bit_j;
      });
    }
  }
  for (auto& preset : artifact.presets) {
    LutArtifact::PresetTables* const t = &preset.second;
    tasks.emplace_back([&, t] {
      gatelevel::SwitchHarness xp = gatelevel::build_crosspoint(bits);
      xp.netlist.set_energy_scale(t->energy_scale);
      for (const gatelevel::MaskEnergy& m :
           gatelevel::characterize(xp, gatelevel::all_masks(1), cfg)) {
        t->crosspoint.push_back(m.energy_per_bit_j);
      }
    });
    tasks.emplace_back([&, t] {
      t->banyan2x2 = two_port_lut(gatelevel::build_banyan_switch(bits),
                                  t->energy_scale, cfg);
    });
    tasks.emplace_back([&, t] {
      t->sorter2x2 = two_port_lut(gatelevel::build_sorter_switch(bits),
                                  t->energy_scale, cfg);
    });
  }
  const unsigned workers =
      options.threads != 0 ? options.threads
                           : std::max(1u, std::thread::hardware_concurrency());
  run_task_pool(tasks.size(), workers, [&](const auto& claim) {
    for (std::size_t i = 0; claim(i);) tasks[i]();
  });
  return artifact;
}

void write_lut_artifact(std::ostream& out, const LutArtifact& artifact) {
  const LutArtifact::Generator& g = artifact.generator;
  out << "{\n";
  out << "  \"schema\": \"" << LutArtifact::kSchema << "\",\n";
  out << "  \"schema_version\": " << LutArtifact::kSchemaVersion << ",\n";
  out << "  \"generator\": {\n";
  out << "    \"cycles\": " << g.cycles << ",\n";
  out << "    \"warmup\": " << g.warmup << ",\n";
  out << "    \"seed\": " << g.seed << ",\n";
  out << "    \"lanes\": " << g.lanes << ",\n";
  out << "    \"bits_per_port\": " << g.bits_per_port << "\n";
  out << "  },\n";
  out << "  \"presets\": [";
  for (std::size_t p = 0; p < artifact.presets.size(); ++p) {
    const auto& [name, t] = artifact.presets[p];
    out << (p == 0 ? "\n" : ",\n");
    out << "    {\n      \"name\": ";
    write_string(out, name);
    out << ",\n      \"energy_scale\": ";
    write_string(out, hexfloat(t.energy_scale));
    out << ",\n";
    write_double_array(out, "crosspoint_per_bit_j", t.crosspoint, "      ");
    out << ",\n";
    write_double_array(out, "banyan2x2_per_bit_j", t.banyan2x2, "      ");
    out << ",\n";
    write_double_array(out, "sorter2x2_per_bit_j", t.sorter2x2, "      ");
    out << ",\n      \"mux_inputs\": [";
    for (std::size_t i = 0; i < t.mux_inputs.size(); ++i) {
      out << (i == 0 ? "" : ", ") << t.mux_inputs[i];
    }
    out << "],\n";
    write_double_array(out, "mux_per_bit_j", t.mux_per_bit_j, "      ");
    out << "\n    }";
  }
  out << "\n  ]\n}\n";
}

LutArtifact parse_lut_artifact(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue root = JsonReader(text.str()).parse();

  if (root.at("schema").as_string() != LutArtifact::kSchema) {
    throw std::invalid_argument("lut artifact: wrong schema '" +
                                root.at("schema").as_string() + "'");
  }
  if (root.at("schema_version").as_uint() !=
      static_cast<std::uint64_t>(LutArtifact::kSchemaVersion)) {
    throw std::invalid_argument(
        "lut artifact: unsupported schema_version " +
        std::to_string(root.at("schema_version").as_uint()));
  }

  LutArtifact artifact;
  const JsonValue& g = root.at("generator");
  artifact.generator.cycles = g.at("cycles").as_uint();
  artifact.generator.warmup = static_cast<unsigned>(g.at("warmup").as_uint());
  artifact.generator.seed = g.at("seed").as_uint();
  artifact.generator.lanes = static_cast<unsigned>(g.at("lanes").as_uint());
  artifact.generator.bits_per_port =
      static_cast<unsigned>(g.at("bits_per_port").as_uint());

  for (const JsonValue& node : root.at("presets").as_array()) {
    LutArtifact::PresetTables t;
    t.energy_scale = parse_hexfloat(node.at("energy_scale").as_string());
    t.crosspoint = read_double_array(node, "crosspoint_per_bit_j", 2);
    t.banyan2x2 = read_double_array(node, "banyan2x2_per_bit_j", 4);
    t.sorter2x2 = read_double_array(node, "sorter2x2_per_bit_j", 4);
    for (const JsonValue& n : node.at("mux_inputs").as_array()) {
      t.mux_inputs.push_back(static_cast<unsigned>(n.as_uint()));
    }
    t.mux_per_bit_j =
        read_double_array(node, "mux_per_bit_j", t.mux_inputs.size());
    if (t.mux_inputs.empty()) {
      throw std::invalid_argument("lut artifact: empty mux ladder");
    }
    artifact.presets.emplace_back(node.at("name").as_string(), std::move(t));
  }
  if (artifact.presets.empty()) {
    throw std::invalid_argument("lut artifact: no presets");
  }
  return artifact;
}

LutArtifact load_lut_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("lut artifact: cannot open '" + path + "'");
  }
  return parse_lut_artifact(in);
}

void save_lut_artifact(const std::string& path, const LutArtifact& artifact) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("lut artifact: cannot write '" + path + "'");
  }
  write_lut_artifact(out, artifact);
  if (!out.flush()) {
    throw std::runtime_error("lut artifact: write failed for '" + path + "'");
  }
}

}  // namespace sfab
