#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <vector>

namespace sfab::obs {

// --- Histogram ---------------------------------------------------------------

void Histogram::observe(std::uint64_t v) noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  snap_.min = snap_.count == 0 ? v : std::min(snap_.min, v);
  snap_.max = std::max(snap_.max, v);
  ++snap_.count;
  snap_.sum += v;
  ++snap_.buckets[std::bit_width(v)];
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snap_;
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: handles
  return *instance;                            // outlive every static dtor
}

template <class T>
T& Registry::find_or_add(Directory<T>& directory, std::string_view name) {
  auto it = directory.find(name);
  if (it == directory.end()) {
    it = directory
             .emplace(std::string(name),
                      std::unique_ptr<T>(new T(std::string(name))))
             .first;
  }
  return *it->second;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(histograms_, name);
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::uint64_t Registry::gauge_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

namespace {

/// One leaf of the rendered metrics tree, pre-serialized as JSON.
struct Leaf {
  std::string name;  // full dotted path
  std::string json;  // value text
};

void write_tree(std::ostream& out, const std::vector<Leaf>& leaves,
                std::size_t begin, std::size_t end, std::size_t depth,
                const std::string& pad) {
  // Leaves are sorted by full name, so equal path prefixes are adjacent:
  // walk each distinct component at `depth`, recursing where the leaf
  // path continues and emitting the value where it ends.
  const auto component = [&](const std::string& name) -> std::string {
    std::size_t start = 0;
    for (std::size_t d = 0; d < depth; ++d) start = name.find('.', start) + 1;
    const std::size_t dot = name.find('.', start);
    return name.substr(start,
                       dot == std::string::npos ? dot : dot - start);
  };
  const auto is_leaf_here = [&](const std::string& name) {
    std::size_t start = 0;
    for (std::size_t d = 0; d < depth; ++d) start = name.find('.', start) + 1;
    return name.find('.', start) == std::string::npos;
  };

  out << "{\n";
  std::size_t i = begin;
  bool first = true;
  while (i < end) {
    const std::string comp = component(leaves[i].name);
    std::size_t j = i + 1;
    while (j < end && component(leaves[j].name) == comp) ++j;
    if (!first) out << ",\n";
    first = false;
    out << pad << "  \"" << comp << "\": ";
    if (j == i + 1 && is_leaf_here(leaves[i].name)) {
      out << leaves[i].json;
    } else {
      write_tree(out, leaves, i, j, depth + 1, pad + "  ");
    }
    i = j;
  }
  out << "\n" << pad << "}";
}

}  // namespace

void Registry::write_json(std::ostream& out, int indent) const {
  std::vector<Leaf> leaves;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      leaves.push_back({name, std::to_string(counter->value())});
    }
    for (const auto& [name, gauge] : gauges_) {
      leaves.push_back({name, std::to_string(gauge->value())});
    }
    for (const auto& [name, hist] : histograms_) {
      const Histogram::Snapshot snap = hist->snapshot();
      std::string json = "{\"count\": " + std::to_string(snap.count) +
                         ", \"sum\": " + std::to_string(snap.sum) +
                         ", \"mean\": " + std::to_string(snap.mean()) +
                         ", \"min\": " + std::to_string(snap.min) +
                         ", \"max\": " + std::to_string(snap.max) + "}";
      leaves.push_back({name, std::move(json)});
    }
  }
  // std::map iteration is sorted per kind; re-sort the merged list so the
  // tree walk sees adjacent prefixes across kinds too.
  std::sort(leaves.begin(), leaves.end(),
            [](const Leaf& a, const Leaf& b) { return a.name < b.name; });
  write_tree(out, leaves, 0, leaves.size(), 0,
             std::string(static_cast<std::size_t>(indent), ' '));
}

}  // namespace sfab::obs
