#include "exp/cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/parse.hpp"
#include "obs/registry.hpp"

namespace sfab {

namespace {

/// Two independent FNV-1a 64-bit streams fed byte-for-byte; 128 bits of
/// key makes an accidental collision across any realistic sweep corpus
/// (billions of grid points) vanishingly unlikely.
struct KeyHasher {
  std::uint64_t a = 0xcbf29ce484222325ull;
  std::uint64_t b = 0x84222325cbf29ce4ull;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      a = (a ^ p[i]) * 0x100000001b3ull;
      b = (b ^ p[i]) * 0x100000001b3ull;
      b ^= b >> 29;  // decorrelate the two streams
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Field tag: keeps adjacent fields from aliasing under concatenation.
  void tag(std::uint64_t t) noexcept { u64(0xA5A5'0000'0000'0000ull | t); }

  [[nodiscard]] std::string hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[i] = digits[(a >> (60 - 4 * i)) & 0xF];
      out[16 + i] = digits[(b >> (60 - 4 * i)) & 0xF];
    }
    return out;
  }
};

void hash_lut(KeyHasher& h, const VectorIndexedLut& lut) {
  h.u64(lut.entries().size());
  for (const double e : lut.entries()) h.f64(e);
}

constexpr char kCsvHeader[] =
    "key,arch,ports,offered_load,egress_throughput,delivered_words,"
    "delivered_packets,input_queue_drops,mean_packet_latency_cycles,power_w,"
    "switch_power_w,buffer_power_w,wire_power_w,energy_per_bit_j,"
    "words_buffered,sram_buffered_words,stall_cycles,measured_cycles";

void format_row(std::ostream& out, const std::string& key,
                const SimResult& r) {
  out << key << ',' << to_string(r.arch) << ',' << r.ports << ','
      << std::hexfloat << r.offered_load << ',' << r.egress_throughput << ','
      << std::dec << r.delivered_words << ',' << r.delivered_packets << ','
      << r.input_queue_drops << ',' << std::hexfloat
      << r.mean_packet_latency_cycles << ',' << r.power_w << ','
      << r.switch_power_w << ',' << r.buffer_power_w << ',' << r.wire_power_w
      << ',' << r.energy_per_bit_j << ',' << std::dec << r.words_buffered
      << ',' << r.sram_buffered_words << ',' << r.stall_cycles << ','
      << r.measured_cycles << '\n';
}

/// Strict row parse: every numeric field must consume its full text and
/// the key must look like a key. A truncated append (killed bench) or an
/// interleaved concurrent write must neither poison the cache with a
/// half-parsed number nor brick the store — parse_row throws and the
/// loader skips the row, which is then simply re-simulated.
[[nodiscard]] SimResult parse_row(const std::vector<std::string>& fields) {
  if (fields.size() != 18) {
    throw std::invalid_argument("bad column count");
  }
  if (fields[0].size() != 32 ||
      fields[0].find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw std::invalid_argument("bad key");
  }
  const auto f64 = [&](std::size_t i) {
    const std::string& text = fields[i];
    // strtod skips leading whitespace — a corrupted field like " 1.0"
    // must not pass the fully-consumed check by accident.
    if (text.empty() || text[0] == ' ' || text[0] == '\t') {
      throw std::invalid_argument("bad double field");
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || errno == ERANGE) {
      throw std::invalid_argument("bad double field");
    }
    return v;
  };
  const auto u64 = [&](std::size_t i) {
    // Counters are written as plain decimal digits, and parse_number
    // accepts exactly that: no whitespace, sign or 0x prefix, no overflow.
    const std::optional<std::uint64_t> v =
        parse_number<std::uint64_t>(fields[i]);
    if (!v) throw std::invalid_argument("bad integer field");
    return *v;
  };
  SimResult r;
  r.arch = parse_architecture(fields[1]);
  r.ports = static_cast<unsigned>(u64(2));
  r.offered_load = f64(3);
  r.egress_throughput = f64(4);
  r.delivered_words = u64(5);
  r.delivered_packets = u64(6);
  r.input_queue_drops = u64(7);
  r.mean_packet_latency_cycles = f64(8);
  r.power_w = f64(9);
  r.switch_power_w = f64(10);
  r.buffer_power_w = f64(11);
  r.wire_power_w = f64(12);
  r.energy_per_bit_j = f64(13);
  r.words_buffered = u64(14);
  r.sram_buffered_words = u64(15);
  r.stall_cycles = u64(16);
  r.measured_cycles = u64(17);
  return r;
}

}  // namespace

ResultCache::ResultCache(std::string csv_path)
    : csv_path_(std::move(csv_path)) {
  static obs::Counter& parse_error_counter =
      obs::Registry::global().counter("exp.cache.parse_errors");
  std::ifstream in(csv_path_);
  if (!in.is_open()) return;  // fresh store; created on first append
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == kCsvHeader) continue;
    std::vector<std::string> fields;
    std::stringstream fieldstream(line);
    std::string field;
    while (std::getline(fieldstream, field, ',')) fields.push_back(field);
    if (fields.empty()) continue;
    try {
      entries_[fields[0]] = parse_row(fields);
    } catch (const std::invalid_argument&) {
      // Damaged row (truncated or interleaved append): drop it; the grid
      // point re-simulates and re-appends on the next sweep.
      parse_error_counter.increment();
      continue;
    }
  }
}

std::string ResultCache::key_of(const SimConfig& c) {
  KeyHasher h;
  h.tag(1), h.u64(static_cast<std::uint64_t>(c.arch));
  h.tag(2), h.u64(c.ports);
  h.tag(3), h.f64(c.offered_load);
  h.tag(4), h.u64(c.packet_words);
  h.tag(5), h.u64(c.warmup_cycles);
  h.tag(6), h.u64(c.measure_cycles);
  h.tag(7), h.u64(c.seed);
  h.tag(8), h.u64(static_cast<std::uint64_t>(c.payload));
  h.tag(9), h.u64(static_cast<std::uint64_t>(c.pattern));
  h.tag(10), h.f64(c.hotspot_fraction);
  h.tag(11), h.u64(c.hotspot_port);
  h.tag(12), h.f64(c.mean_burst_cycles);
  h.tag(13), h.f64(c.tech.feature_um);
  h.tag(14), h.f64(c.tech.vdd_v);
  h.tag(15), h.f64(c.tech.clock_hz);
  h.tag(16), h.f64(c.tech.wire_cap_per_um_f);
  h.tag(17), h.u64(c.tech.bus_width);
  h.tag(18), h.f64(c.tech.wire_pitch_um);
  h.tag(19), hash_lut(h, c.switches.crosspoint);
  h.tag(20), hash_lut(h, c.switches.banyan2x2);
  h.tag(21), hash_lut(h, c.switches.sorter2x2);
  h.tag(22), h.u64(c.switches.mux_by_inputs.points().size());
  for (const auto& [x, y] : c.switches.mux_by_inputs.points()) {
    h.f64(x), h.f64(y);
  }
  h.tag(23), h.u64(c.buffer_words_per_switch);
  h.tag(24), h.u64(c.buffer_skid_words);
  h.tag(25), h.u64(c.charge_buffer_read_and_write ? 1 : 0);
  h.tag(26), h.u64(c.dram_buffers ? 1 : 0);
  h.tag(27), h.f64(c.dram_retention_s);
  h.tag(28), h.u64(c.ingress_queue_packets);
  h.tag(29), h.u64(static_cast<std::uint64_t>(c.scheme));
  h.tag(30), h.u64(c.islip_iterations);
  return h.hex();
}

std::optional<SimResult> ResultCache::lookup(const SimConfig& config) {
  return lookup_key(key_of(config));
}

std::optional<SimResult> ResultCache::lookup_key(const std::string& key) {
  static obs::Counter& hit_counter =
      obs::Registry::global().counter("exp.cache.hits");
  static obs::Counter& miss_counter =
      obs::Registry::global().counter("exp.cache.misses");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    miss_counter.increment();
    return std::nullopt;
  }
  ++hits_;
  hit_counter.increment();
  return it->second;
}

void ResultCache::store(const SimConfig& config, const SimResult& result) {
  store_key(key_of(config), result);
}

void ResultCache::store_key(const std::string& key, const SimResult& result) {
  static obs::Counter& insert_counter =
      obs::Registry::global().counter("exp.cache.inserts");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.emplace(key, result);
  (void)it;
  if (inserted) insert_counter.increment();
  if (inserted && !csv_path_.empty()) append_row(key, result);
}

void ResultCache::append_row(const std::string& key, const SimResult& result) {
  // Open per append: benches are separate short-lived processes and the
  // store must be durable the moment a sweep finishes. The store may also
  // be shared by concurrent shard workers (src/dist), so the append must
  // never interleave partial rows: format the row in memory first, take an
  // exclusive flock, decide header-or-not from the locked file's true
  // size, and land everything in one write(2).
  std::ostringstream row;
  format_row(row, key, result);

  const int fd =
      ::open(csv_path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    throw std::runtime_error("ResultCache: cannot append to " + csv_path_);
  }
  if (::flock(fd, LOCK_EX) != 0) {
    ::close(fd);
    throw std::runtime_error("ResultCache: cannot lock " + csv_path_);
  }
  struct stat st {};
  std::string text;
  if (::fstat(fd, &st) == 0 && st.st_size == 0) {
    text = std::string(kCsvHeader) + '\n';
  }
  text += row.str();
  const ssize_t written = ::write(fd, text.data(), text.size());
  ::flock(fd, LOCK_UN);
  ::close(fd);
  if (written != static_cast<ssize_t>(text.size())) {
    throw std::runtime_error("ResultCache: short write to " + csv_path_);
  }
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

ResultCache* ResultCache::from_env() {
  static const std::unique_ptr<ResultCache> cache =
      []() -> std::unique_ptr<ResultCache> {
    const char* path = std::getenv("SFAB_RESULT_CACHE");
    if (path == nullptr || *path == '\0') return nullptr;
    return std::make_unique<ResultCache>(path);
  }();
  return cache.get();
}

}  // namespace sfab
