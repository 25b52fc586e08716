#include "dist/status.hpp"

#include <algorithm>
#include <ostream>

#include "dist/shard_plan.hpp"
#include "exp/report.hpp"

namespace sfab::dist {

std::vector<ResolvedShard> resolve_shards(const ShardLedger& ledger,
                                          const LedgerPlan& plan) {
  const ShardPlan shard_plan(plan.total_runs, plan.shard_count);
  std::vector<ResolvedShard> out;
  out.reserve(shard_plan.shard_count());
  for (std::size_t k = 0; k < shard_plan.shard_count(); ++k) {
    const ShardRange range = shard_plan.range_of(k);
    ResolvedShard shard;
    shard.key = shard_key(k);
    shard.begin = range.begin;
    shard.end = range.end;
    shard.committed = ledger.fragment_exists(shard.key);
    shard.poison = ledger.read_poison(shard.key);
    out.push_back(std::move(shard));
  }
  return out;
}

const char* to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::kPending:
      return "pending";
    case ShardState::kRunning:
      return "running";
    case ShardState::kStale:
      return "stale";
    case ShardState::kDone:
      return "done";
    case ShardState::kPoisoned:
      return "poisoned";
  }
  return "?";
}

SweepStatus sweep_status(const ShardLedger& ledger) {
  SweepStatus status;
  status.plan = ledger.plan();
  status.complete = true;
  status.settled = true;

  for (ResolvedShard& shard : resolve_shards(ledger, status.plan)) {
    ShardStatus entry;
    entry.claim_age_s = ledger.claim_age_s(shard.key);
    if (shard.committed) {
      entry.state = ShardState::kDone;
      entry.done = shard.size();
    } else if (shard.poison) {
      entry.state = ShardState::kPoisoned;
      entry.done = std::min(shard.poison->committed, shard.size());
      status.quarantined.push_back(*shard.poison);
    } else {
      entry.done = ledger
                       .committed_prefix(shard.key, shard.begin, shard.end,
                                         csv_columns().size())
                       .size();
      if (entry.claim_age_s) {
        entry.state = *entry.claim_age_s < ledger.stale_after_s()
                          ? ShardState::kRunning
                          : ShardState::kStale;
      } else {
        entry.state = ShardState::kPending;
      }
    }
    if (!shard.committed) {
      status.complete = false;
      if (!shard.poison) status.settled = false;
    }
    status.runs_done += entry.done;
    entry.shard = std::move(shard);
    status.shards.push_back(std::move(entry));
  }
  return status;
}

void render_status(std::ostream& out, const SweepStatus& status) {
  std::size_t key_width = 5;
  for (const ShardStatus& entry : status.shards) {
    key_width = std::max(key_width, entry.shard.key.size());
  }

  for (const ShardStatus& entry : status.shards) {
    const std::size_t total = entry.shard.size();
    constexpr std::size_t kBar = 24;
    const std::size_t filled =
        total == 0 ? kBar : (entry.done * kBar) / total;
    out << "  shard " << entry.shard.key
        << std::string(key_width - entry.shard.key.size(), ' ') << " [";
    for (std::size_t i = 0; i < kBar; ++i) {
      out << (i < filled ? '#' : '-');
    }
    out << "] " << entry.done << '/' << total << "  "
        << to_string(entry.state);
    if (entry.state == ShardState::kRunning ||
        entry.state == ShardState::kStale) {
      if (entry.claim_age_s) {
        out << " (heartbeat "
            << static_cast<long>(*entry.claim_age_s * 10.0) / 10.0 << "s ago)";
      }
    }
    if (entry.shard.poison) {
      out << " (suspect run " << entry.shard.poison->suspect << ")";
    }
    out << '\n';
  }

  out << "  total " << status.runs_done << '/' << status.plan.total_runs
      << " runs";
  if (status.plan.total_runs != 0) {
    out << " (" << (status.runs_done * 100) / status.plan.total_runs << "%)";
  }
  if (!status.quarantined.empty()) {
    out << ", " << status.quarantined.size() << " shard(s) quarantined";
  }
  if (status.complete) out << ", complete";
  out << '\n';
}

}  // namespace sfab::dist
