#include "exp/report.hpp"

#include <charconv>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "common/parse.hpp"
#include "sim/report.hpp"

namespace sfab {

// --- aligned-text sink -------------------------------------------------------

void print_records(std::ostream& os,
                   const std::vector<const RunRecord*>& records,
                   const std::vector<Column>& columns) {
  TextTable table;
  std::vector<std::string> header;
  header.reserve(columns.size());
  for (const Column& column : columns) header.push_back(column.header);
  table.set_header(std::move(header));
  for (const RunRecord* rec : records) {
    std::vector<std::string> row;
    row.reserve(columns.size());
    for (const Column& column : columns) row.push_back(column.cell(*rec));
    table.add_row(std::move(row));
  }
  table.print(os);
}

void print_records(std::ostream& os, const ResultSet& results,
                   const std::vector<Column>& columns) {
  std::vector<const RunRecord*> records;
  records.reserve(results.size());
  for (const RunRecord& rec : results) records.push_back(&rec);
  print_records(os, records, columns);
}

// --- CSV sink ----------------------------------------------------------------

namespace {

/// Shortest decimal form that parses back to the same double.
[[nodiscard]] std::string format_double(double value) {
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) throw std::logic_error("format_double: overflow");
  return std::string(buffer, end);
}

template <class T>
[[nodiscard]] T read_field(std::string_view text, const char* what) {
  const std::optional<T> value = parse_number<T>(text);
  if (!value) {
    throw std::invalid_argument(std::string("read_csv: bad ") + what +
                                " \"" + std::string(text) + "\"");
  }
  return *value;
}

[[nodiscard]] std::vector<std::string_view> split_fields(
    std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

const std::vector<std::string>& csv_columns() {
  static const std::vector<std::string> kColumns{
      // identification / config axes
      "index", "replicate", "seed", "scheme", "arch", "ports",
      "offered_load", "pattern", "packet_words", "payload", "tech_um",
      "buffer_words", "warmup_cycles", "measure_cycles",
      // measurements
      "egress_throughput", "delivered_words", "delivered_packets",
      "input_queue_drops", "mean_packet_latency_cycles", "power_w",
      "switch_power_w", "buffer_power_w", "wire_power_w",
      "energy_per_bit_j", "words_buffered", "sram_buffered_words",
      "stall_cycles", "measured_cycles"};
  return kColumns;
}

std::string csv_header() {
  std::string header;
  for (const std::string& column : csv_columns()) {
    if (!header.empty()) header += ',';
    header += column;
  }
  return header;
}

std::string csv_row(const RunRecord& rec) {
  const SimConfig& c = rec.config;
  const SimResult& r = rec.result;
  std::string row;
  const auto add = [&row](const std::string& field) {
    if (!row.empty()) row += ',';
    row += field;
  };
  add(std::to_string(rec.index));
  add(std::to_string(rec.replicate));
  add(std::to_string(c.seed));
  add(std::string(to_string(c.scheme)));
  add(std::string(to_string(c.arch)));
  add(std::to_string(c.ports));
  add(format_double(c.offered_load));
  add(std::string(to_string(c.pattern)));
  add(std::to_string(c.packet_words));
  add(std::string(to_string(c.payload)));
  add(format_double(c.tech.feature_um));
  add(std::to_string(c.buffer_words_per_switch));
  add(std::to_string(c.warmup_cycles));
  add(std::to_string(c.measure_cycles));
  add(format_double(r.egress_throughput));
  add(std::to_string(r.delivered_words));
  add(std::to_string(r.delivered_packets));
  add(std::to_string(r.input_queue_drops));
  add(format_double(r.mean_packet_latency_cycles));
  add(format_double(r.power_w));
  add(format_double(r.switch_power_w));
  add(format_double(r.buffer_power_w));
  add(format_double(r.wire_power_w));
  add(format_double(r.energy_per_bit_j));
  add(std::to_string(r.words_buffered));
  add(std::to_string(r.sram_buffered_words));
  add(std::to_string(r.stall_cycles));
  add(std::to_string(r.measured_cycles));
  return row;
}

void write_csv(std::ostream& os, const ResultSet& results) {
  os << csv_header() << '\n';
  for (const RunRecord& rec : results) os << csv_row(rec) << '\n';
}

ResultSet read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != csv_header()) {
    throw std::invalid_argument("read_csv: missing or mismatched header");
  }

  std::vector<RunRecord> records;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto fields = split_fields(line);
    if (fields.size() != csv_columns().size()) {
      throw std::invalid_argument("read_csv: wrong field count in \"" +
                                  line + "\"");
    }
    RunRecord rec;
    SimConfig& c = rec.config;
    SimResult& r = rec.result;
    std::size_t f = 0;
    rec.index = read_field<std::size_t>(fields[f++], "index");
    rec.replicate = read_field<unsigned>(fields[f++], "replicate");
    c.seed = read_field<std::uint64_t>(fields[f++], "seed");
    c.scheme = parse_router_scheme(fields[f++]);
    c.arch = parse_architecture(fields[f++]);
    c.ports = read_field<unsigned>(fields[f++], "ports");
    c.offered_load = read_field<double>(fields[f++], "offered_load");
    c.pattern = parse_traffic_pattern(fields[f++]);
    c.packet_words = read_field<unsigned>(fields[f++], "packet_words");
    c.payload = parse_payload_kind(fields[f++]);
    c.tech.feature_um = read_field<double>(fields[f++], "tech_um");
    c.buffer_words_per_switch =
        read_field<unsigned>(fields[f++], "buffer_words");
    c.warmup_cycles = read_field<Cycle>(fields[f++], "warmup_cycles");
    c.measure_cycles = read_field<Cycle>(fields[f++], "measure_cycles");
    r.egress_throughput =
        read_field<double>(fields[f++], "egress_throughput");
    r.delivered_words =
        read_field<std::uint64_t>(fields[f++], "delivered_words");
    r.delivered_packets =
        read_field<std::uint64_t>(fields[f++], "delivered_packets");
    r.input_queue_drops =
        read_field<std::uint64_t>(fields[f++], "input_queue_drops");
    r.mean_packet_latency_cycles =
        read_field<double>(fields[f++], "mean_packet_latency_cycles");
    r.power_w = read_field<double>(fields[f++], "power_w");
    r.switch_power_w = read_field<double>(fields[f++], "switch_power_w");
    r.buffer_power_w = read_field<double>(fields[f++], "buffer_power_w");
    r.wire_power_w = read_field<double>(fields[f++], "wire_power_w");
    r.energy_per_bit_j =
        read_field<double>(fields[f++], "energy_per_bit_j");
    r.words_buffered =
        read_field<std::uint64_t>(fields[f++], "words_buffered");
    r.sram_buffered_words =
        read_field<std::uint64_t>(fields[f++], "sram_buffered_words");
    r.stall_cycles = read_field<std::uint64_t>(fields[f++], "stall_cycles");
    r.measured_cycles = read_field<Cycle>(fields[f++], "measured_cycles");
    // Mirror the identification block SimResult carries alongside.
    r.arch = c.arch;
    r.ports = c.ports;
    r.offered_load = c.offered_load;
    records.push_back(std::move(rec));
  }
  return ResultSet(std::move(records));
}

}  // namespace sfab
