#include "gatelevel/netlist.hpp"

#include <stdexcept>

namespace sfab::gatelevel {

NetId Netlist::add_net(std::string name) {
  if (finalized_) throw std::logic_error("add_net after finalize");
  const auto id = static_cast<NetId>(fanout_.size());
  fanout_.push_back(0);
  names_.push_back(std::move(name));
  has_driver_.push_back(0);
  value_.push_back(0);
  return id;
}

void Netlist::mark_input(NetId net) {
  if (finalized_) throw std::logic_error("mark_input after finalize");
  if (net >= fanout_.size()) throw std::out_of_range("mark_input: bad net");
  if (has_driver_[net]) {
    throw std::invalid_argument("mark_input: net already driven by a gate");
  }
  has_driver_[net] = 1;
  inputs_.push_back(net);
}

void Netlist::add_gate(GateType type, const std::vector<NetId>& inputs,
                       NetId output) {
  if (finalized_) throw std::logic_error("add_gate after finalize");
  if (inputs.size() != input_count(type)) {
    throw std::invalid_argument("add_gate: wrong number of input pins");
  }
  for (NetId in : inputs) {
    if (in >= fanout_.size()) throw std::out_of_range("add_gate: bad input");
  }
  if (output >= fanout_.size()) throw std::out_of_range("add_gate: bad output");
  if (has_driver_[output]) {
    throw std::invalid_argument("add_gate: output net already driven");
  }
  has_driver_[output] = 1;
  for (NetId in : inputs) ++fanout_[in];
  gate_types_.push_back(type);
  gate_outs_.push_back(output);
  gate_pins_.insert(gate_pins_.end(), inputs.begin(), inputs.end());
  gate_pin_offsets_.push_back(static_cast<std::uint32_t>(gate_pins_.size()));
}

const std::string& Netlist::net_name(NetId net) const {
  if (net >= names_.size()) throw std::out_of_range("net_name: bad net");
  return names_[net];
}

void Netlist::finalize() {
  if (finalized_) throw std::logic_error("finalize called twice");
  for (NetId net = 0; net < has_driver_.size(); ++net) {
    if (!has_driver_[net]) {
      throw std::logic_error("finalize: net '" + names_[net] +
                             "' has no driver and is not an input");
    }
  }

  // Kahn levelization over combinational gates. DFF outputs act as sources
  // (their Q is known at the start of each cycle), so DFFs never join the
  // combinational order.
  std::vector<char> net_ready(fanout_.size(), 0);
  for (NetId in : inputs_) net_ready[in] = 1;
  for (std::size_t i = 0; i < num_gates(); ++i) {
    if (gate_types_[i] == GateType::kDff) {
      dffs_.push_back(i);
      net_ready[gate_outs_[i]] = 1;
    }
  }
  dff_state_.assign(dffs_.size(), 0);

  std::vector<char> scheduled(num_gates(), 0);
  level_order_.clear();
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < num_gates(); ++i) {
      if (scheduled[i] || gate_types_[i] == GateType::kDff) continue;
      bool ready = true;
      for (NetId in : gate_pins(i)) {
        if (!net_ready[in]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        scheduled[i] = 1;
        net_ready[gate_outs_[i]] = 1;
        level_order_.push_back(i);
        progress = true;
      }
    }
  }
  for (std::size_t i = 0; i < num_gates(); ++i) {
    if (!scheduled[i] && gate_types_[i] != GateType::kDff) {
      throw std::logic_error(
          "finalize: combinational cycle detected (gate output net '" +
          names_[gate_outs_[i]] + "')");
    }
  }

  gate_toggles_.assign(num_gates(), 0);

  finalized_ = true;
}

void Netlist::reset() {
  if (!finalized_) throw std::logic_error("reset before finalize");
  std::fill(value_.begin(), value_.end(), 0);
  std::fill(dff_state_.begin(), dff_state_.end(), 0);
  std::fill(gate_toggles_.begin(), gate_toggles_.end(), 0);
  energy_j_ = 0.0;
  toggles_ = 0;
}

void Netlist::set_energy_scale(double scale) {
  if (scale <= 0.0) throw std::invalid_argument("set_energy_scale: scale <= 0");
  energy_scale_ = scale;
}

void Netlist::charge_toggle(std::size_t gate) {
  const GateEnergy e = energy_of(gate_types_[gate], energy_scale_);
  energy_j_ += e.toggle_j + e.per_fanout_j * fanout_[gate_outs_[gate]];
  ++toggles_;
  ++gate_toggles_[gate];
}

void Netlist::step(const std::vector<bool>& input_values) {
  if (!finalized_) throw std::logic_error("step before finalize");
  if (input_values.size() != inputs_.size()) {
    throw std::invalid_argument("step: wrong number of input values");
  }

  // 1. DFF outputs present their latched state; clock energy always burns.
  for (std::size_t k = 0; k < dffs_.size(); ++k) {
    const std::size_t gi = dffs_[k];
    const NetId out = gate_outs_[gi];
    const bool q = dff_state_[k] != 0;
    energy_j_ += energy_of(gate_types_[gi], energy_scale_).idle_j;
    if (value_[out] != static_cast<char>(q)) {
      value_[out] = static_cast<char>(q);
      charge_toggle(gi);
    }
  }

  // 2. Primary inputs (testbench drives these; their wire energy belongs to
  // the upstream driver, so no charge here).
  for (std::size_t k = 0; k < inputs_.size(); ++k) {
    value_[inputs_[k]] = input_values[k] ? 1 : 0;
  }

  // 3. Combinational settle: every gate, in topological order.
  for (const std::size_t gi : level_order_) {
    std::uint32_t in_mask = 0;
    std::uint32_t pin = 0;
    for (const NetId net : gate_pins(gi)) {
      in_mask |= static_cast<std::uint32_t>(value_[net] != 0) << pin++;
    }
    const bool out = evaluate(gate_types_[gi], in_mask);
    const NetId out_net = gate_outs_[gi];
    if (value_[out_net] != static_cast<char>(out)) {
      value_[out_net] = static_cast<char>(out);
      charge_toggle(gi);
    }
  }

  // 4. DFFs capture D for the next cycle.
  for (std::size_t k = 0; k < dffs_.size(); ++k) {
    dff_state_[k] = value_[gate_pins(dffs_[k])[0]];
  }
}

bool Netlist::value(NetId net) const {
  if (net >= value_.size()) throw std::out_of_range("value: bad net");
  return value_[net] != 0;
}

}  // namespace sfab::gatelevel
