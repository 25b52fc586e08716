#include "dist/merge.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "dist/status.hpp"
#include "exp/report.hpp"
#include "obs/profiler.hpp"

namespace sfab::dist {

namespace {

/// Splits fragment text into (header, body, row_count); tolerates a
/// missing trailing newline on the last row.
struct FragmentRows {
  std::string_view header;
  std::string_view body;
  std::size_t rows = 0;
};

[[nodiscard]] FragmentRows split_fragment(std::string_view text) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos) {
    throw std::runtime_error("merge_shards: fragment has no header line");
  }
  FragmentRows out;
  out.header = text.substr(0, eol);
  out.body = text.substr(eol + 1);
  for (std::size_t at = 0; at < out.body.size();) {
    const std::size_t next = out.body.find('\n', at);
    ++out.rows;
    if (next == std::string_view::npos) break;
    at = next + 1;
  }
  return out;
}

void append_terminated(std::string& csv, std::string_view rows) {
  csv.append(rows);
  if (!csv.empty() && csv.back() != '\n') csv.push_back('\n');
}

}  // namespace

MergeOutput merge_shards(const std::string& shard_dir,
                         const MergeOptions& options) {
  static obs::Histogram& merge_ns =
      obs::Registry::global().histogram("dist.merge_ns");
  const obs::ScopedPhase merge_timer(merge_ns);
  const ShardLedger ledger(shard_dir);
  const LedgerPlan plan = ledger.plan();
  if (!options.expected_fingerprint.empty() &&
      options.expected_fingerprint != plan.fingerprint) {
    throw std::runtime_error(
        "merge_shards: " + shard_dir +
        " was produced by a different sweep (fingerprint mismatch)");
  }

  const std::string header = csv_header();
  const std::size_t fields = static_cast<std::size_t>(std::count(
                                 header.begin(), header.end(), ',')) +
                             1;

  MergeOutput out;
  out.total_runs = plan.total_runs;
  out.csv_text = header + '\n';

  for (const ResolvedShard& shard : resolve_shards(ledger, plan)) {
    if (shard.committed) {
      const std::string text = ledger.read_fragment(shard.key);
      const FragmentRows frag = split_fragment(text);
      if (frag.header != header) {
        throw std::runtime_error("merge_shards: shard " + shard.key +
                                 " fragment has a mismatched header");
      }
      if (frag.rows != shard.size()) {
        throw std::runtime_error(
            "merge_shards: shard " + shard.key + " holds " +
            std::to_string(frag.rows) + " rows, expected " +
            std::to_string(shard.size()) + " (corrupt ledger)");
      }
      append_terminated(out.csv_text, frag.body);
      continue;
    }

    if (shard.poison) {
      if (!options.allow_quarantined) {
        std::string message =
            "merge_shards: refusing to merge " + shard_dir +
            ": shard " + shard.key + " is quarantined (suspect run " +
            std::to_string(shard.poison->suspect) + " after " +
            std::to_string(shard.poison->reclaims) + " retries";
        if (!shard.poison->reason.empty()) {
          message += ": " + shard.poison->reason;
        }
        message += "); pass --allow-quarantined to merge with a gap report";
        throw std::runtime_error(message);
      }
    } else if (!options.allow_incomplete) {
      throw std::runtime_error("merge_shards: shard " + shard.key +
                               " has no fragment yet (sweep incomplete)");
    }

    // Recover what the shard durably streamed before it stopped.
    const std::vector<std::string> prefix =
        ledger.committed_prefix(shard.key, shard.begin, shard.end, fields);
    for (const std::string& row : prefix) {
      out.csv_text += row;
      out.csv_text += '\n';
    }
    ShardGap gap;
    gap.key = shard.key;
    gap.begin = shard.begin;
    gap.end = shard.end;
    gap.committed = prefix.size();
    gap.missing_begin = shard.begin + prefix.size();
    gap.missing_end = shard.end;
    gap.poison = shard.poison;
    out.gaps.push_back(std::move(gap));
  }

  std::istringstream parse(out.csv_text);
  out.results = read_csv(parse);
  return out;
}

}  // namespace sfab::dist
