#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace sfab::obs {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint32_t this_thread_tid() noexcept {
  static std::atomic<std::uint32_t> next{1};
  static thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

Profiler& Profiler::global() {
  static Profiler* instance = new Profiler();  // leaked: outlives statics
  return *instance;
}

void Profiler::record(const Histogram& phase, std::uint64_t start_ns,
                      std::uint64_t duration_ns) noexcept {
  if (!spans_enabled()) return;
  const Span span{&phase, this_thread_tid(), start_ns, duration_ns};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Profiler::write_trace_json(std::ostream& out) const {
  // Chrome trace-event "complete" events; ts/dur are microseconds (the
  // format's unit), emitted with fractional precision to keep ns data.
  std::vector<Span> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });

  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": \"" << span.phase->name()
        << "\", \"cat\": \"sfab\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << span.tid << ", \"ts\": " << span.start_ns / 1000 << "."
        << (span.start_ns % 1000) / 100
        << ", \"dur\": " << span.duration_ns / 1000 << "."
        << (span.duration_ns % 1000) / 100 << "}";
  }
  out << "\n]}\n";
}

}  // namespace sfab::obs
