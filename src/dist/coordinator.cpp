#include "dist/coordinator.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dist/status.hpp"
#include "obs/log.hpp"

namespace sfab::dist {

namespace {

/// fork/exec one worker; returns its pid. Throws when fork fails; a child
/// whose exec fails exits 127 and is counted as a failed worker.
[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("ShardCoordinator: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

/// The sweep's settlement state; a plan that is not yet published (every
/// worker died before publishing) reads as unsettled, not as an error.
struct Settlement {
  bool settled = false;
  bool complete = false;
  std::vector<PoisonRecord> poisoned;
};

[[nodiscard]] Settlement settlement_of(const ShardLedger& ledger) {
  Settlement state;
  LedgerPlan plan;
  try {
    plan = ledger.plan();
  } catch (const std::exception&) {
    return state;
  }
  state.settled = true;
  state.complete = true;
  for (const ResolvedShard& shard : resolve_shards(ledger, plan)) {
    if (shard.committed) continue;
    state.complete = false;
    if (shard.poison) {
      state.poisoned.push_back(*shard.poison);
    } else {
      state.settled = false;
    }
  }
  return state;
}

}  // namespace

ShardCoordinator::ShardCoordinator(
    std::string shard_dir,
    std::function<std::vector<std::string>(unsigned)> worker_argv)
    : shard_dir_(std::move(shard_dir)), worker_argv_(std::move(worker_argv)) {}

CoordinatorReport ShardCoordinator::run(std::size_t shard_count,
                                        const CoordinatorOptions& options) {
  (void)shard_count;  // completion is judged from the ledger's own plan
  const ShardLedger ledger(shard_dir_);
  CoordinatorReport report;
  double backoff_s = options.backoff_initial_s;

  for (unsigned wave = 0; wave <= options.max_respawn_waves; ++wave) {
    ++report.waves;
    std::vector<pid_t> pids;
    pids.reserve(options.workers);
    for (unsigned w = 0; w < options.workers; ++w) {
      pids.push_back(spawn(worker_argv_(w)));
      ++report.spawned;
    }

    for (const pid_t pid : pids) {
      int status = 0;
      if (::waitpid(pid, &status, 0) < 0) {
        ++report.failed;
        continue;
      }
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!clean) {
        ++report.failed;
        obs::log_warn("coordinator", "worker pid ", pid,
                      WIFSIGNALED(status)
                          ? " killed by signal " +
                                std::to_string(WTERMSIG(status))
                          : " exited " +
                                std::to_string(WEXITSTATUS(status)));
      }
    }

    const Settlement state = settlement_of(ledger);
    if (state.settled) {
      report.complete = state.complete;
      report.poisoned = state.poisoned;
      for (const PoisonRecord& poison : state.poisoned) {
        obs::log_warn("coordinator", "shard ", poison.key,
                      " quarantined (suspect run ", poison.suspect,
                      " after ", poison.reclaims,
                      " retries: ", poison.reason, ")");
      }
      return report;
    }

    if (wave < options.max_respawn_waves) {
      obs::log_info("coordinator", "wave ", report.waves,
                    " ended with the sweep unsettled; respawning in ",
                    backoff_s, " s");
      if (backoff_s > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff_s));
        backoff_s = std::min(backoff_s * 2.0, options.backoff_cap_s);
      }
    }
  }
  throw std::runtime_error(
      "ShardCoordinator: sweep still unsettled after " +
      std::to_string(report.waves) + " waves (" +
      std::to_string(report.spawned) + " workers spawned, " +
      std::to_string(report.failed) +
      " failed) — the worker command is likely crashing before it can "
      "claim work; check the binary and flags (" +
      shard_dir_ + ")");
}

}  // namespace sfab::dist
