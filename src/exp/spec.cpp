#include "exp/spec.hpp"

#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace sfab {

namespace {

/// Effective size of one axis: an empty axis contributes one grid point
/// (base's value).
[[nodiscard]] std::size_t axis_size(std::size_t declared) noexcept {
  return declared == 0 ? 1 : declared;
}

/// Resolved technology point: parameters plus matching switch tables.
struct TechPoint {
  TechnologyParams tech;
  SwitchEnergyTables switches;
};

[[nodiscard]] std::vector<TechPoint> resolve_tech(const SweepSpec& spec) {
  std::vector<TechPoint> points;
  if (spec.tech_nodes.empty()) {
    points.push_back({spec.base.tech, spec.base.switches});
    return points;
  }
  points.reserve(spec.tech_nodes.size());
  for (const std::string& name : spec.tech_nodes) {
    const TechnologyParams tech = TechnologyParams::preset(name);
    points.push_back({tech, spec.base.switches.scaled_to(tech)});
  }
  return points;
}

/// The axis values to iterate: the declared ones, or base's single value.
template <class T>
[[nodiscard]] std::vector<T> axis_values(const std::vector<T>& declared,
                                         const T& fallback) {
  if (declared.empty()) return {fallback};
  return declared;
}

}  // namespace

std::size_t SweepSpec::grid_size() const noexcept {
  return axis_size(architectures.size()) * axis_size(ports.size()) *
         axis_size(patterns.size()) * axis_size(packet_words.size()) *
         axis_size(payloads.size()) * axis_size(schemes.size()) *
         axis_size(tech_nodes.size()) * axis_size(buffer_words.size()) *
         axis_size(charge_read_and_write.size()) * axis_size(loads.size());
}

std::size_t SweepSpec::run_count() const noexcept {
  return grid_size() * replicates;
}

std::vector<RunPlan> SweepSpec::expand() const {
  if (replicates == 0) {
    throw std::invalid_argument("SweepSpec: replicates must be >= 1");
  }

  const auto archs = axis_values(architectures, base.arch);
  const auto port_counts = axis_values(ports, base.ports);
  const auto pattern_kinds = axis_values(patterns, base.pattern);
  const auto packet_lengths = axis_values(packet_words, base.packet_words);
  const auto payload_kinds = axis_values(payloads, base.payload);
  const auto router_schemes = axis_values(schemes, base.scheme);
  const auto tech_points = resolve_tech(*this);
  const auto buffer_sizes =
      axis_values(buffer_words, base.buffer_words_per_switch);
  const auto charge_modes =
      axis_values(charge_read_and_write, base.charge_buffer_read_and_write);
  const auto load_points = axis_values(loads, base.offered_load);

  // Per-replicate seeds are shared by every grid point (paired sweeps) and
  // independent of the grid shape, so adding an axis never reseeds the rest.
  std::vector<std::uint64_t> seeds(replicates);
  for (unsigned r = 0; r < replicates; ++r) {
    seeds[r] = derive_stream_seed(base.seed, r);
  }

  std::vector<RunPlan> plans;
  plans.reserve(run_count());
  for (const Architecture arch : archs) {
    for (const unsigned port_count : port_counts) {
      for (const TrafficPatternKind pattern : pattern_kinds) {
        for (const unsigned packet_length : packet_lengths) {
          for (const PayloadKind payload : payload_kinds) {
            for (const RouterScheme scheme : router_schemes) {
              for (const TechPoint& tech : tech_points) {
                for (const unsigned buffer_size : buffer_sizes) {
                  for (const bool charge_rw : charge_modes) {
                    for (const double load : load_points) {
                      for (unsigned r = 0; r < replicates; ++r) {
                        RunPlan plan;
                        plan.index = plans.size();
                        plan.replicate = r;
                        plan.config = base;
                        plan.config.arch = arch;
                        plan.config.ports = port_count;
                        plan.config.pattern = pattern;
                        plan.config.packet_words = packet_length;
                        plan.config.payload = payload;
                        plan.config.scheme = scheme;
                        plan.config.tech = tech.tech;
                        plan.config.switches = tech.switches;
                        plan.config.buffer_words_per_switch = buffer_size;
                        plan.config.charge_buffer_read_and_write = charge_rw;
                        plan.config.offered_load = load;
                        plan.config.seed = seeds[r];
                        validate(plan.config);
                        plans.push_back(std::move(plan));
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return plans;
}

}  // namespace sfab
