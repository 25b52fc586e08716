// Fault-injection driver for the distributed sweep subsystem.
//
//   chaos_harness <sfab_cli> <scenario> <seed> [--cycles N] [--workdir D]
//
// Scenarios (all share one fixed 12-run banyan workload):
//   kill       SIGKILL a worker mid-shard, after a seeded number of its
//              streamed rows; it must die of the signal, and the survivor
//              must record a reclaim of its stale claim and resume from
//              the streamed row prefix.
//   stop       SIGSTOP a worker mid-shard the same way (live process,
//              frozen heartbeat); the survivor must record a reclaim and
//              re-run; SIGCONT resurrects the zombie, whose duplicate
//              appends and idempotent commit must be harmless.
//   straggler  one worker sleeps 600 ms after every run; with 12 one-run
//              shards the other worker must claim around it, so the
//              sweep settles in under half the straggler's solo time.
//   enospc     the first fragment commit fails like a full disk; the
//              retry must succeed from the streamed rows.
//   heartbeat  a worker keeps computing but its heartbeat freezes — the
//              "live worker that looks dead" double-execution case.
//   poison     every worker deterministically dies at global run 7; the
//              sweep must quarantine exactly that shard with suspect 7,
//              the strict merge must refuse, and --allow-quarantined must
//              report precisely runs 7..12 missing.
//   all        every scenario in sequence.
//
// Every surviving-output scenario asserts the merged CSV is byte-identical
// to an in-process single-thread golden of the same spec — the acceptance
// contract of the whole subsystem.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/ledger.hpp"
#include "dist/merge.hpp"
#include "dist/status.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"

namespace {

using namespace sfab;
namespace fs = std::filesystem;

int g_failures = 0;

#define CHECK(cond, message)                                               \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::cerr << "CHAOS FAIL: " << message << " (" << #cond << ") at "   \
                << __FILE__ << ":" << __LINE__ << "\n";                    \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

struct Harness {
  std::string cli;
  std::string cycles = "20000";
  fs::path workdir;
  std::mt19937 rng;
};

/// The fixed chaos workload: 2 replicates x 6 loads = 12 runs of
/// banyan-16. Must mirror the worker argv below axis for axis so the
/// fingerprints (and bytes) agree.
[[nodiscard]] SweepSpec chaos_spec(const Harness& h) {
  SweepSpec spec;
  spec.base.ports = 16;
  spec.base.offered_load = 0.4;
  spec.base.seed = 7;
  spec.base.measure_cycles = std::stoull(h.cycles);
  spec.architectures = {parse_architecture("banyan")};
  spec.ports = {16};
  spec.loads = {0.5, 0.55, 0.6, 0.65, 0.7, 0.75};
  spec.replicates = 2;
  return spec;
}

[[nodiscard]] std::string golden_csv(const Harness& h) {
  static std::string cached;
  static std::string cached_cycles;
  if (cached.empty() || cached_cycles != h.cycles) {
    std::ostringstream csv;
    write_csv(csv, run_sweep(chaos_spec(h), 1));
    cached = csv.str();
    cached_cycles = h.cycles;
  }
  return cached;
}

/// Worker argv for the chaos workload (axes mirror chaos_spec).
[[nodiscard]] std::vector<std::string> worker_argv(
    const Harness& h, const std::string& shard_dir, unsigned workers,
    unsigned index, const std::vector<std::string>& extra) {
  std::vector<std::string> argv = {
      h.cli,          "--arch",    "banyan",
      "--ports",      "16",        "--load",
      "0.5,0.55,0.6,0.65,0.7,0.75", "--replicates", "2",
      "--seed",       "7",         "--cycles",
      h.cycles,       "--threads", "1",
      "--stale-after", "1",        "--shards",
      std::to_string(workers),     "--shard-index",
      std::to_string(index),       "--shard-dir",
      shard_dir};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return argv;
}

using Env = std::vector<std::pair<std::string, std::string>>;

[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv,
                          const Env& env) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    for (const auto& [name, value] : env) {
      ::setenv(name.c_str(), value.c_str(), 1);
    }
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

/// Exit code, or 128+signal for a signal death, or -1 on wait failure.
[[nodiscard]] int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void sleep_ms(unsigned ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Polls until worker `pid` holds the claim on shard `key` of `dir` and
/// has streamed at least `rows` of its rows, i.e. the worker is mid-shard.
/// False if `pid` exits first or a minute passes.
[[nodiscard]] bool await_streamed_rows(const fs::path& dir, pid_t pid,
                                       const std::string& key,
                                       std::size_t rows) {
  const std::string tag = ":" + std::to_string(pid) + ":";
  for (int polls = 0; polls < 60000; ++polls) {
    std::ifstream claim(dir / "claims" / ("shard-" + key + ".claim"));
    std::string owner;
    if (std::getline(claim, owner) && owner.find(tag) != std::string::npos) {
      std::ifstream parts(dir / "parts" / ("shard-" + key + ".rows"));
      const auto streamed =
          std::count(std::istreambuf_iterator<char>(parts),
                     std::istreambuf_iterator<char>(), '\n');
      if (static_cast<std::size_t>(streamed) >= rows) return true;
    }
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == pid) {
      return false;  // exited (left for wait_exit to reap)
    }
    sleep_ms(1);
  }
  return false;
}

[[nodiscard]] bool reclaimed(const fs::path& dir, const std::string& key) {
  return dist::ShardLedger(dir.string(), 1.0).reclaim_count(key) > 0;
}

[[nodiscard]] fs::path scenario_dir(Harness& h, const std::string& name) {
  const fs::path dir = h.workdir / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void check_golden_merge(const Harness& h, const std::string& shard_dir,
                        const std::string& scenario) {
  try {
    const dist::MergeOutput merged = dist::merge_shards(shard_dir);
    CHECK(merged.gaps.empty(), scenario + ": merge reported gaps");
    CHECK(merged.csv_text == golden_csv(h),
          scenario + ": merged CSV differs from the single-process golden");
  } catch (const std::exception& error) {
    CHECK(false, scenario + ": strict merge threw: " + error.what());
  }
}

// --- scenarios ---------------------------------------------------------------

/// Two six-run shards, so the fault lands mid-shard: worker 0 walks the
/// plan from its end and first claims shard "1" (runs 6..11), worker 1
/// shard "0". The fault waits for 1..5 (seeded) of worker 0's streamed
/// rows, so at least one of its runs is still to go.
const std::vector<std::string> kTwoShards = {"--shard-count", "2",
                                             "--max-reclaims", "10"};

void scenario_kill(Harness& h) {
  const fs::path dir = scenario_dir(h, "kill");
  const Env none;
  const pid_t victim = spawn(worker_argv(h, dir, 2, 0, kTwoShards), none);
  const pid_t survivor = spawn(worker_argv(h, dir, 2, 1, kTwoShards), none);
  const std::size_t rows = 1 + h.rng() % 5;
  CHECK(await_streamed_rows(dir, victim, "1", rows),
        "kill: the victim never streamed " + std::to_string(rows) +
            " row(s) of shard 1");
  ::kill(victim, SIGKILL);
  CHECK(wait_exit(victim) == 128 + SIGKILL,
        "kill: the victim did not die of SIGKILL");
  // The survivor only exits once the sweep settles — which reclaims the
  // victim's stale claim and resumes from its streamed rows.
  CHECK(wait_exit(survivor) == 0, "kill: surviving worker failed");
  CHECK(reclaimed(dir, "1"), "kill: the ledger recorded no reclaim");
  check_golden_merge(h, dir, "kill");
}

void scenario_stop(Harness& h) {
  const fs::path dir = scenario_dir(h, "stop");
  const Env none;
  const pid_t frozen = spawn(worker_argv(h, dir, 2, 0, kTwoShards), none);
  const pid_t survivor = spawn(worker_argv(h, dir, 2, 1, kTwoShards), none);
  const std::size_t rows = 1 + h.rng() % 5;
  CHECK(await_streamed_rows(dir, frozen, "1", rows),
        "stop: the frozen worker never streamed " + std::to_string(rows) +
            " row(s) of shard 1");
  ::kill(frozen, SIGSTOP);
  int status = 0;
  CHECK(::waitpid(frozen, &status, WUNTRACED) == frozen && WIFSTOPPED(status),
        "stop: the frozen worker did not stop");
  CHECK(wait_exit(survivor) == 0, "stop: surviving worker failed");
  CHECK(reclaimed(dir, "1"), "stop: the ledger recorded no reclaim");
  // Resurrect the zombie: its duplicate row appends must dedupe and its
  // fragment commit must be an idempotent identical-bytes install.
  ::kill(frozen, SIGCONT);
  CHECK(wait_exit(frozen) == 0, "stop: resumed worker failed");
  check_golden_merge(h, dir, "stop");
}

void scenario_straggler(Harness& h) {
  const fs::path dir = scenario_dir(h, "straggler");
  // One shard per run: a fast worker keeps claiming while the straggler
  // finishes the shard it holds.
  constexpr unsigned kSlowRunMs = 600;
  const std::vector<std::string> extra = {"--shard-count", "12",
                                          "--max-reclaims", "10"};
  const auto start = std::chrono::steady_clock::now();
  const pid_t straggler =
      spawn(worker_argv(h, dir, 2, 0, extra),
            {{"SFAB_CHAOS_SLOW_RUN_MS", std::to_string(kSlowRunMs)}});
  const pid_t fast = spawn(worker_argv(h, dir, 2, 1, extra), {});
  CHECK(wait_exit(fast) == 0, "straggler: fast worker failed");
  CHECK(wait_exit(straggler) == 0, "straggler: straggler worker failed");
  const double settle_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  // The straggler alone would sleep through all 12 runs; over half of
  // them is the most a balanced sweep may cost.
  const double limit_s = kSlowRunMs * 6 / 1000.0;
  CHECK(settle_s < limit_s, "straggler: sweep took " +
                                std::to_string(settle_s) + " s, limit " +
                                std::to_string(limit_s) + " s");
  check_golden_merge(h, dir, "straggler");
}

void scenario_enospc(Harness& h) {
  const fs::path dir = scenario_dir(h, "enospc");
  // The first fragment commit fails like a full disk; the worker strikes
  // the shard and the retry commits from the streamed rows.
  const pid_t worker = spawn(worker_argv(h, dir, 1, 0, {}),
                             {{"SFAB_CHAOS_COMMIT_ENOSPC", "1"}});
  CHECK(wait_exit(worker) == 0, "enospc: worker failed");
  const dist::ShardLedger ledger(dir.string(), 1.0);
  bool struck = false;
  for (std::size_t s = 0; s < 12; ++s) {
    struck = struck || ledger.reclaim_count(dist::shard_key(s)) > 0;
  }
  CHECK(struck, "enospc: the failed commit never recorded a retry strike");
  check_golden_merge(h, dir, "enospc");
}

void scenario_heartbeat(Harness& h) {
  const fs::path dir = scenario_dir(h, "heartbeat");
  // Worker 0 keeps computing but stops heartbeating after one beat: the
  // survivor must treat it as dead, reclaim, and re-run; the zombie's
  // late duplicate work must be byte-harmless.
  const pid_t zombie =
      spawn(worker_argv(h, dir, 2, 0, {"--max-reclaims", "10"}),
            {{"SFAB_CHAOS_FREEZE_HEARTBEAT_AFTER_BEATS", "1"},
             {"SFAB_CHAOS_SLOW_RUN_MS", "300"}});
  const pid_t survivor =
      spawn(worker_argv(h, dir, 2, 1, {"--max-reclaims", "10"}), {});
  CHECK(wait_exit(survivor) == 0, "heartbeat: surviving worker failed");
  CHECK(wait_exit(zombie) == 0, "heartbeat: zombie worker failed");
  check_golden_merge(h, dir, "heartbeat");
}

void scenario_poison(Harness& h) {
  const fs::path dir = scenario_dir(h, "poison");
  // Coordinator mode: every worker (the coordinator's children inherit
  // the env) deterministically dies the instant it would execute global
  // run 7. Two fixed shards [0,6) and [6,12): shard "1" must be
  // quarantined with suspect exactly 7 (run 6 streams before the crash).
  std::vector<std::string> argv = {h.cli,
                                   "--arch",
                                   "banyan",
                                   "--ports",
                                   "16",
                                   "--load",
                                   "0.5,0.55,0.6,0.65,0.7,0.75",
                                   "--replicates",
                                   "2",
                                   "--seed",
                                   "7",
                                   "--cycles",
                                   h.cycles,
                                   "--threads",
                                   "1",
                                   "--stale-after",
                                   "1",
                                   "--shards",
                                   "2",
                                   "--shard-count",
                                   "2",
                                   "--max-reclaims",
                                   "2",
                                   "--shard-dir",
                                   dir.string(),
                                   "--csv",
                                   (dir / "partial.csv").string()};
  const pid_t coordinator =
      spawn(argv, {{"SFAB_CHAOS_ABORT_RUN", "7"}});
  CHECK(wait_exit(coordinator) == 2,
        "poison: coordinator must exit 2 for a quarantined sweep");

  try {
    (void)dist::merge_shards(dir.string());
    CHECK(false, "poison: strict merge must refuse a quarantined sweep");
  } catch (const std::exception& error) {
    const std::string what = error.what();
    CHECK(what.find("quarantined") != std::string::npos,
          "poison: merge refusal must name the quarantine: " + what);
  }

  dist::MergeOptions options;
  options.allow_quarantined = true;
  try {
    const dist::MergeOutput merged = dist::merge_shards(dir.string(), options);
    CHECK(merged.gaps.size() == 1, "poison: expected exactly one gap");
    if (merged.gaps.size() == 1) {
      const dist::ShardGap& gap = merged.gaps.front();
      CHECK(gap.key == "1", "poison: wrong shard quarantined: " + gap.key);
      CHECK(gap.missing_begin == 7,
            "poison: gap must start at the crashing run (got " +
                std::to_string(gap.missing_begin) + ")");
      CHECK(gap.missing_end == 12, "poison: gap must reach the shard end");
      CHECK(gap.poison.has_value(), "poison: gap must carry the record");
      if (gap.poison) {
        CHECK(gap.poison->suspect == 7,
              "poison: suspect must be run 7 (got " +
                  std::to_string(gap.poison->suspect) + ")");
        CHECK(gap.poison->reclaims >= 2,
              "poison: the retry budget must be spent before quarantine");
      }
    }
    // Every surviving row must be byte-identical to the golden's prefix:
    // header + runs 0..6 (shard "0" complete, shard "1" streamed run 6).
    const std::string golden = golden_csv(h);
    std::size_t at = 0;
    for (std::size_t line = 0; line < 8; ++line) {
      at = golden.find('\n', at) + 1;
    }
    CHECK(merged.csv_text == golden.substr(0, at),
          "poison: surviving rows differ from the single-process golden");
  } catch (const std::exception& error) {
    CHECK(false,
          std::string("poison: --allow-quarantined merge threw: ") +
              error.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: chaos_harness <sfab_cli> "
                 "<kill|stop|straggler|enospc|heartbeat|poison|all> "
                 "<seed> "
                 "[--cycles N] [--workdir D]\n";
    return 2;
  }
  Harness h;
  h.cli = argv[1];
  const std::string scenario = argv[2];
  h.rng.seed(static_cast<unsigned>(std::stoul(argv[3])));
  for (int i = 4; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--cycles") {
      h.cycles = argv[i + 1];
    } else if (flag == "--workdir") {
      h.workdir = argv[i + 1];
    } else {
      std::cerr << "chaos_harness: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (h.workdir.empty()) {
    h.workdir = fs::temp_directory_path() /
                ("sfab-chaos-" + std::to_string(::getpid()));
  }
  fs::create_directories(h.workdir);
  // The golden and the workers must simulate, not hit a shared store.
  ::unsetenv("SFAB_RESULT_CACHE");

  const auto run = [&](const std::string& name) {
    std::cerr << "=== chaos scenario: " << name << " ===\n";
    if (name == "kill") {
      scenario_kill(h);
    } else if (name == "stop") {
      scenario_stop(h);
    } else if (name == "straggler") {
      scenario_straggler(h);
    } else if (name == "enospc") {
      scenario_enospc(h);
    } else if (name == "heartbeat") {
      scenario_heartbeat(h);
    } else if (name == "poison") {
      scenario_poison(h);
    } else {
      std::cerr << "chaos_harness: unknown scenario " << name << "\n";
      ++g_failures;
    }
  };

  if (scenario == "all") {
    for (const char* name :
         {"kill", "stop", "straggler", "enospc", "heartbeat", "poison"}) {
      run(name);
    }
  } else {
    run(scenario);
  }

  if (g_failures == 0) {
    fs::remove_all(h.workdir);
    std::cerr << "chaos: all assertions passed\n";
    return 0;
  }
  std::cerr << "chaos: " << g_failures << " assertion(s) failed; evidence in "
            << h.workdir << "\n";
  return 1;
}
