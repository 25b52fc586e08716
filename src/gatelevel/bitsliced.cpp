#include "gatelevel/bitsliced.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "common/bitops.hpp"

namespace sfab::gatelevel {

LaneCoefficients lane_coefficients(const Netlist& source, double scale) {
  if (!source.finalized()) {
    throw std::invalid_argument("lane_coefficients: netlist not finalized");
  }
  if (!(scale > 0.0)) {
    throw std::invalid_argument("lane_coefficients: scale <= 0");
  }
  const auto coeff = [&](GateType type, NetId out) {
    const GateEnergy e = energy_of(type, scale);
    // Same expression as the scalar engine's charge_toggle, so a per-lane
    // replay adds bit-identical doubles.
    return e.toggle_j + e.per_fanout_j * source.fanout(out);
  };
  LaneCoefficients c;
  c.op.reserve(source.level_order().size());
  for (const std::size_t gi : source.level_order()) {
    c.op.push_back(coeff(source.gate_type(gi), source.gate_output(gi)));
  }
  c.dff.reserve(source.dff_gates().size());
  for (const std::size_t gi : source.dff_gates()) {
    c.dff.push_back(coeff(GateType::kDff, source.gate_output(gi)));
  }
  c.dff_idle_j = energy_of(GateType::kDff, scale).idle_j;
  return c;
}

BitslicedNetlist::BitslicedNetlist(const Netlist& source, unsigned lanes,
                                   LaneKernel kernel) {
  if (!source.finalized()) {
    throw std::invalid_argument("BitslicedNetlist: netlist not finalized");
  }
  if (lanes < 1 || lanes > kMaxLanes) {
    throw std::invalid_argument("BitslicedNetlist: lanes must be in [1, 512]");
  }
  lanes_ = lanes;
  words_ = static_cast<unsigned>(bitmask_words(lanes));
  kernel_ = resolve_lane_kernel(kernel);
  sweep_ = lane_sweep_fn(kernel_);
  word_masks_.assign(words_, ~std::uint64_t{0});
  word_masks_.back() = last_word_lane_mask(lanes);

  LaneCoefficients coeffs = lane_coefficients(source, source.energy_scale());
  op_coeff_ = std::move(coeffs.op);
  dff_coeff_ = std::move(coeffs.dff);
  dff_idle_j_ = coeffs.dff_idle_j;

  const auto& order = source.level_order();
  op_types_.reserve(order.size());
  op_pins_.reserve(order.size() * 3);
  op_outs_.reserve(order.size());
  for (const std::size_t gi : order) {
    const auto pins = source.gate_pins(gi);
    op_types_.push_back(source.gate_type(gi));
    // Pad unused pin slots with the first pin: evaluate_lanes ignores them,
    // and a real net keeps the read in-bounds.
    op_pins_.push_back(pins[0]);
    op_pins_.push_back(pins.size() > 1 ? pins[1] : pins[0]);
    op_pins_.push_back(pins.size() > 2 ? pins[2] : pins[0]);
    op_outs_.push_back(source.gate_output(gi));
  }

  const auto& dffs = source.dff_gates();
  dff_d_.reserve(dffs.size());
  dff_q_.reserve(dffs.size());
  for (const std::size_t gi : dffs) {
    dff_d_.push_back(source.gate_pins(gi)[0]);
    dff_q_.push_back(source.gate_output(gi));
  }

  inputs_ = source.inputs();
  num_nets_ = source.num_nets();
  values_.assign(num_nets_ * words_, 0);
  dff_state_.assign(dffs.size() * words_, 0);
  op_toggles_.assign(op_types_.size(), 0);
  dff_toggles_.assign(dffs.size(), 0);
  lane_energy_.assign(lanes_, 0.0);
  lane_toggles_.assign(lanes_, 0);
}

void BitslicedNetlist::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(dff_state_.begin(), dff_state_.end(), 0);
  std::fill(op_toggles_.begin(), op_toggles_.end(), 0);
  std::fill(dff_toggles_.begin(), dff_toggles_.end(), 0);
  std::fill(lane_energy_.begin(), lane_energy_.end(), 0.0);
  std::fill(lane_toggles_.begin(), lane_toggles_.end(), 0);
  energy_j_ = 0.0;
  toggles_ = 0;
}

void BitslicedNetlist::charge_lanes(std::uint64_t diff, unsigned word_index,
                                    double coeff) noexcept {
  for_each_set_bit(diff, word_index * kWordLanes, [&](unsigned lane) {
    lane_energy_[lane] += coeff;
    ++lane_toggles_[lane];
  });
}

/// Generic sweep used while per-lane accounting is on: mirrors the kernel
/// contract exactly (masked flips, `if (flips)` accumulate in op order) and
/// additionally replays each toggling lane's charge in ascending lane order.
void BitslicedNetlist::sweep_accounting() noexcept {
  const std::size_t n_ops = op_types_.size();
  const unsigned W = words_;
  const NetId* pins = op_pins_.data();
  std::uint64_t diffs[kMaxWords];
  for (std::size_t g = 0; g < n_ops; ++g, pins += 3) {
    const std::uint64_t* a = values_.data() + std::size_t{pins[0]} * W;
    const std::uint64_t* b = values_.data() + std::size_t{pins[1]} * W;
    const std::uint64_t* s = values_.data() + std::size_t{pins[2]} * W;
    std::uint64_t* out = values_.data() + std::size_t{op_outs_[g]} * W;
    const GateType type = op_types_[g];
    unsigned flips = 0;
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t next = evaluate_lanes(type, a[w], b[w], s[w]);
      diffs[w] = (out[w] ^ next) & word_masks_[w];
      flips += static_cast<unsigned>(std::popcount(diffs[w]));
      out[w] = next;
    }
    if (flips != 0) {
      toggles_ += flips;
      op_toggles_[g] += flips;
      energy_j_ += op_coeff_[g] * flips;
      for (unsigned w = 0; w < W; ++w) charge_lanes(diffs[w], w, op_coeff_[g]);
    }
  }
}

void BitslicedNetlist::step(const std::vector<std::uint64_t>& input_blocks) {
  const unsigned W = words_;
  if (input_blocks.size() != inputs_.size() * W) {
    throw std::invalid_argument("step: wrong number of input words");
  }

  // 1. DFF outputs present their latched blocks; every active lane burns
  // clock energy every cycle (the scalar engine's idle charge, lanes()
  // wide).
  for (std::size_t k = 0; k < dff_q_.size(); ++k) {
    const std::uint64_t* q = dff_state_.data() + k * W;
    std::uint64_t* slot = values_.data() + std::size_t{dff_q_[k]} * W;
    std::uint64_t diffs[kMaxWords];
    unsigned flips = 0;
    for (unsigned w = 0; w < W; ++w) {
      diffs[w] = (slot[w] ^ q[w]) & word_masks_[w];
      flips += static_cast<unsigned>(std::popcount(diffs[w]));
      slot[w] = q[w];
    }
    energy_j_ += dff_idle_j_ * static_cast<double>(lanes_);
    if (flips != 0) {
      toggles_ += flips;
      dff_toggles_[k] += flips;
      energy_j_ += dff_coeff_[k] * flips;
    }
    if (lane_accounting_) {
      // Scalar order per lane: idle first, then the toggle charge.
      for (unsigned lane = 0; lane < lanes_; ++lane) {
        lane_energy_[lane] += dff_idle_j_;
      }
      for (unsigned w = 0; w < W; ++w) charge_lanes(diffs[w], w, dff_coeff_[k]);
    }
  }

  // 2. Primary inputs (no charge; see the scalar engine).
  for (std::size_t k = 0; k < inputs_.size(); ++k) {
    std::uint64_t* slot = values_.data() + std::size_t{inputs_[k]} * W;
    const std::uint64_t* in = input_blocks.data() + k * W;
    for (unsigned w = 0; w < W; ++w) slot[w] = in[w];
  }

  // 3. Combinational level sweep, 64·words() lanes per op, through the
  // resolved SIMD kernel (or the generic accounting sweep while per-lane
  // replay is enabled). No dirty tracking: random-vector stimulus keeps
  // most of the cone active, and the straight sweep over the flat arrays
  // is what the lane widening pays for.
  if (lane_accounting_) {
    sweep_accounting();
  } else {
    LaneSweepProgram program;
    program.types = op_types_.data();
    program.pins = op_pins_.data();
    program.outs = op_outs_.data();
    program.coeffs = op_coeff_.data();
    program.n_ops = op_types_.size();
    toggles_ += sweep_(program, values_.data(), W, word_masks_.data(),
                       op_toggles_.data(), &energy_j_);
  }

  // 4. DFFs capture D for the next cycle, in every lane.
  for (std::size_t k = 0; k < dff_d_.size(); ++k) {
    const std::uint64_t* d = values_.data() + std::size_t{dff_d_[k]} * W;
    std::uint64_t* state = dff_state_.data() + k * W;
    for (unsigned w = 0; w < W; ++w) state[w] = d[w];
  }
}

std::uint64_t BitslicedNetlist::word(NetId net, unsigned w) const {
  if (net >= num_nets_) throw std::out_of_range("word: bad net");
  if (w >= words_) throw std::out_of_range("word: bad word index");
  return values_[std::size_t{net} * words_ + w];
}

bool BitslicedNetlist::value(NetId net, unsigned lane) const {
  if (lane >= lanes_) throw std::out_of_range("value: bad lane");
  return ((word(net, lane / kWordLanes) >> (lane % kWordLanes)) & 1u) != 0;
}

double BitslicedNetlist::lane_energy_j(unsigned lane) const {
  if (lane >= lanes_) throw std::out_of_range("lane_energy_j: bad lane");
  return lane_energy_[lane];
}

std::uint64_t BitslicedNetlist::lane_toggles(unsigned lane) const {
  if (lane >= lanes_) throw std::out_of_range("lane_toggles: bad lane");
  return lane_toggles_[lane];
}

}  // namespace sfab::gatelevel
