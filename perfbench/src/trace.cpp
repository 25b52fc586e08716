#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <ostream>

#include "exp/cache.hpp"

namespace perfbench {

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double rusage_cpu_s(int who) noexcept {
  rusage usage{};
  if (::getrusage(who, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

double self_cpu_s() noexcept { return rusage_cpu_s(RUSAGE_SELF); }
double children_cpu_s() noexcept { return rusage_cpu_s(RUSAGE_CHILDREN); }

// --- Tracer -------------------------------------------------------------------

int Tracer::open(std::string name, int parent, long long op) {
  const double t = now_s();
  return add(std::move(name), t, t, parent, op);
}

void Tracer::close(int id) { spans_.at(static_cast<std::size_t>(id)).end = now_s(); }

int Tracer::add(std::string name, double start, double end, int parent,
                long long op) {
  spans_.push_back(Span{std::move(name), start, end, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::duration(int id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  return span.end - span.start;
}

double Tracer::self_time(int id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans_) {
    if (child.parent != id) continue;
    const double a = std::max(child.start, span.start);
    const double b = std::min(child.end, span.end);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double children = 0.0;
  double reach = span.start;
  for (const auto& [a, b] : covered) {
    const double from = std::max(a, reach);
    if (b > from) children += b - from;
    reach = std::max(reach, b);
  }
  return (span.end - span.start) - children;
}

void Tracer::write_json(std::ostream& out) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": \"" << s.name
        << "\", \"start\": " << s.start - origin
        << ", \"end\": " << s.end - origin
        << ", \"self\": " << self_time(static_cast<int>(i))
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
  }
  out << "\n]}\n";
}

// --- UnitRecorder -----------------------------------------------------------------

std::function<void(const sfab::RunRecord&)> UnitRecorder::callback() {
  return [this](const sfab::RunRecord& rec) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(Event{std::this_thread::get_id(), t, rec.index});
  };
}

std::vector<UnitSample> UnitRecorder::finish(
    const sfab::ResultSet& results,
    std::unordered_set<std::string>* stored_keys, Tracer& tracer, int parent,
    std::size_t op_offset) {
  const std::size_t n = results.size();
  // Which records ran: the runner's own rule — a key already in the store
  // is a hit, a key seen earlier in this sweep is a follower of that run.
  std::vector<char> computed(n, 1);
  if (stored_keys != nullptr) {
    std::unordered_set<std::string> seen;
    std::vector<std::string> fresh;
    for (std::size_t i = 0; i < n; ++i) {
      std::string key = sfab::ResultCache::key_of(results[i].config);
      if (stored_keys->count(key) != 0 || !seen.insert(key).second) {
        computed[i] = 0;
      } else {
        fresh.push_back(std::move(key));
      }
    }
    stored_keys->insert(fresh.begin(), fresh.end());
  }

  // Hits fire on the calling thread before dispatch begins and followers
  // after the join, so the events before the first computed one are hits.
  double dispatch = start_;
  for (const Event& e : events_) {
    if (e.index < n && computed[e.index] != 0) break;
    if (e.index < n) dispatch = std::max(dispatch, e.time);
  }

  std::map<std::thread::id, double> last_end;
  std::vector<UnitSample> units;
  for (std::size_t k = 0; k < events_.size();) {
    const Event& head = events_[k];
    if (head.index >= n || computed[head.index] == 0) {
      ++k;
      continue;
    }
    // Records of one lane unit fire back to back from one thread, and a
    // grid point is one unit (its replicate siblings share one call).
    const sfab::RunRecord& first = results[head.index];
    const std::size_t grid = first.index - first.replicate;
    std::size_t end = k + 1;
    double port_cycles = 0.0;
    const auto cycles_of = [](const sfab::SimConfig& c) {
      return static_cast<double>(c.ports) *
             static_cast<double>(c.warmup_cycles + c.measure_cycles);
    };
    port_cycles += cycles_of(first.config);
    while (end < events_.size() && events_[end].thread == head.thread &&
           events_[end].index < n && computed[events_[end].index] != 0) {
      const sfab::RunRecord& next = results[events_[end].index];
      if (next.index - next.replicate != grid) break;
      port_cycles += cycles_of(next.config);
      ++end;
    }
    const auto found = last_end.find(head.thread);
    const double start = found == last_end.end() ? dispatch : found->second;
    UnitSample unit;
    unit.lane = end - k > 1;
    unit.arch = first.config.arch;
    unit.seconds = head.time - start;
    unit.port_cycles = port_cycles;
    units.push_back(unit);
    tracer.add(unit.lane ? "sim.lane" : "sim.scalar", start, head.time,
               parent, static_cast<long long>(op_offset + first.index));
    last_end[head.thread] = events_[end - 1].time;
    k = end;
  }
  events_.clear();
  return units;
}

// --- statistics -------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double tail_percentile(std::size_t count, std::size_t beyond) noexcept {
  if (count <= 2 * beyond) return 50.0;
  // Nearest rank: percentile p is sample ceil(p/100 * count), leaving
  // count - that many samples above it; take the highest whole p that
  // leaves `beyond`.
  const double n = static_cast<double>(count);
  for (int p = 99; p > 50; --p) {
    if (n - std::ceil(p / 100.0 * n) >= static_cast<double>(beyond)) return p;
  }
  return 50.0;
}

}  // namespace perfbench
