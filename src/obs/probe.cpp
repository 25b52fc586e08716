#include "obs/probe.hpp"

#include <ostream>

namespace sfab::obs {

void ProbeRecorder::on_run_begin(unsigned ports) {
  ports_ = ports;
}

void ProbeRecorder::on_cycle(const CycleSample& sample) {
  cycle_.push_back(sample.cycle);
  queued_packets_.push_back(sample.queued_packets);
  queued_words_.push_back(sample.queued_words);
  delivered_words_.push_back(sample.delivered_words);
  delivered_packets_.push_back(sample.delivered_packets);
  grants_.push_back(sample.grants);
  stall_cycles_.push_back(sample.stall_cycles);
  buffered_words_.push_back(sample.buffered_words);
  switch_energy_j_.push_back(sample.switch_energy_j);
  buffer_energy_j_.push_back(sample.buffer_energy_j);
  wire_energy_j_.push_back(sample.wire_energy_j);
  if (sample.words_per_port != nullptr && sample.ports == ports_) {
    port_words_.insert(port_words_.end(), sample.words_per_port,
                       sample.words_per_port + sample.ports);
  } else {
    port_words_.insert(port_words_.end(), ports_, 0);
  }
}

void ProbeRecorder::write_csv(std::ostream& out) const {
  out << "cycle,queued_packets,queued_words,delivered_words,"
         "delivered_packets,grants,stall_cycles,buffered_words,"
         "switch_j,buffer_j,wire_j";
  for (unsigned p = 0; p < ports_; ++p) out << ",port_words_" << p;
  out << "\n";
  const auto flags = out.flags();
  out.precision(17);  // round-trip doubles
  for (std::size_t i = 0; i < cycle_.size(); ++i) {
    out << cycle_[i] << ',' << queued_packets_[i] << ',' << queued_words_[i]
        << ',' << delivered_words_[i] << ',' << delivered_packets_[i] << ','
        << grants_[i] << ',' << stall_cycles_[i] << ',' << buffered_words_[i]
        << ',' << switch_energy_j_[i] << ',' << buffer_energy_j_[i] << ','
        << wire_energy_j_[i];
    for (unsigned p = 0; p < ports_; ++p) {
      out << ',' << port_words_[i * ports_ + p];
    }
    out << "\n";
  }
  out.flags(flags);
}

}  // namespace sfab::obs
