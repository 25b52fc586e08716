// sfab_characterize — runs the gate-level characterization ladder and
// emits the versioned switch-energy LUT artifact (power/lut_artifact.hpp).
//
// The shipped artifact is regenerated with the defaults:
//
//   sfab_characterize --out power/luts/switch_luts.json
//
// CI's drift gate regenerates the full ladder with these defaults and
// requires the file to equal the committed artifact byte for byte, then
// runs scripts/check_lut_drift.py on it for per-row messages. --reduced
// stops the MUX ladder at 64 for a quick local check whose rows the
// script compares against the committed ones.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "gatelevel/bitsliced.hpp"
#include "power/lut_artifact.hpp"
#include "power/technology.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: sfab_characterize [options]\n"
         "  --out PATH      write the artifact here (default: stdout)\n"
         "  --cycles N      measured lane-cycles per mask (default 262144)\n"
         "  --warmup N      warm-up cycles per lane (default 128)\n"
         "  --seed N        Monte-Carlo base seed (default 6269725)\n"
         "  --lanes N       lane population per mask, 1..512 (default 512)\n"
         "  --bits N        payload bits per port (default 32)\n"
         "  --threads N     workers over the ladder's tasks (default 0 = all "
         "cores)\n"
         "  --max-mux N     top MUX port count, pow2 >= 4 (default 1024)\n"
         "  --presets A,B   technology presets (default: all)\n"
         "  --reduced       quick drift check: --max-mux 64\n";
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    sfab::LutBuildOptions options;
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(arg + ": missing value");
        }
        return argv[++i];
      };
      if (arg == "--out") {
        out_path = next();
      } else if (arg == "--cycles") {
        options.generator.cycles = sfab::parse_flag<std::uint64_t>(arg, next());
      } else if (arg == "--warmup") {
        options.generator.warmup = sfab::parse_flag<unsigned>(arg, next());
      } else if (arg == "--seed") {
        options.generator.seed = sfab::parse_flag<std::uint64_t>(arg, next());
      } else if (arg == "--lanes") {
        options.generator.lanes = sfab::parse_flag<unsigned>(arg, next());
        if (options.generator.lanes < 1 ||
            options.generator.lanes >
                sfab::gatelevel::BitslicedNetlist::kMaxLanes) {
          throw std::invalid_argument(
              "--lanes " + std::to_string(options.generator.lanes) +
              " is outside 1.." +
              std::to_string(sfab::gatelevel::BitslicedNetlist::kMaxLanes));
        }
      } else if (arg == "--bits") {
        options.generator.bits_per_port =
            sfab::parse_flag<unsigned>(arg, next());
      } else if (arg == "--threads") {
        options.threads = sfab::parse_flag<unsigned>(arg, next());
      } else if (arg == "--max-mux") {
        options.max_mux_inputs = sfab::parse_flag<unsigned>(arg, next());
      } else if (arg == "--presets") {
        options.presets = split_csv(next());
        if (options.presets.empty()) {
          throw std::invalid_argument("--presets names no preset");
        }
        for (const std::string& name : options.presets) {
          (void)sfab::TechnologyParams::preset(name);  // validate early
        }
      } else if (arg == "--reduced") {
        options.max_mux_inputs = 64;
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        throw std::invalid_argument("unknown option: " + arg);
      }
    }

    const sfab::LutArtifact artifact = sfab::build_lut_artifact(options);
    if (out_path.empty()) {
      sfab::write_lut_artifact(std::cout, artifact);
    } else {
      sfab::save_lut_artifact(out_path, artifact);
    }

    std::cerr << "sfab_characterize: " << artifact.presets.size()
              << " presets, mux ladder to "
              << artifact.presets.front().second.mux_inputs.back()
              << " inputs, cycles=" << artifact.generator.cycles
              << (out_path.empty() ? "" : ", wrote " + out_path) << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sfab_characterize: " << e.what() << "\n";
    usage(std::cerr);
    return 1;
  }
}
