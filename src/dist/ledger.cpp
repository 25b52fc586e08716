#include "dist/ledger.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "common/parse.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace sfab::dist {

namespace fs = std::filesystem;

namespace {

constexpr char kPlanMagic[] = "sfab-shard-plan v1";
constexpr char kPoisonMagic[] = "sfab-poison v1";
constexpr char kProgressMagic[] = "sfab-progress v1";

/// Chaos hook (tests/chaos): when SFAB_CHAOS_COMMIT_ENOSPC=<n> is set, the
/// n-th fragment commit in this process writes a truncated temp file and
/// fails as a full disk would — the rename never happens, so the protocol
/// must treat the attempt as if it never was.
[[nodiscard]] bool chaos_commit_enospc() {
  static std::atomic<long> remaining{[] {
    const char* env = std::getenv("SFAB_CHAOS_COMMIT_ENOSPC");
    return env == nullptr ? -1L : std::atol(env);
  }()};
  long seen = remaining.load(std::memory_order_relaxed);
  while (seen > 0) {
    if (remaining.compare_exchange_weak(seen, seen - 1,
                                        std::memory_order_relaxed)) {
      return seen == 1;
    }
  }
  return false;
}

/// `<path><tag><pid>.<n>` with a process-wide call counter n, so no two
/// calls — from other processes or from threads of this one — ever share
/// a temp or tombstone name.
[[nodiscard]] std::string unique_name(const std::string& path,
                                      const char* tag) {
  static std::atomic<std::uint64_t> calls{0};
  return path + tag + std::to_string(::getpid()) + "." +
         std::to_string(calls.fetch_add(1, std::memory_order_relaxed));
}

void fsync_fd_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error("ShardLedger: fsync " + what + " failed: " +
                             std::strerror(errno));
  }
}

/// Flushes the directory entry itself so the rename that installed a file
/// survives a power loss, not just the file's bytes.
void fsync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: not all filesystems allow it
  (void)::fsync(fd);
  ::close(fd);
}

/// Writes `text` to `final_path` via a unique temp file and an atomic
/// rename. With `durable`, the temp file is fsync'd before the rename and
/// the directory after it, so a host power loss can never expose a
/// complete-looking truncated file. With `simulate_enospc`, only half the
/// bytes land and the call fails without renaming (chaos harness).
void write_file_atomic(const fs::path& final_path, const std::string& text,
                       bool durable, bool simulate_enospc = false) {
  const fs::path tmp = unique_name(final_path.string(), ".tmp.");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("ShardLedger: cannot write " + tmp.string());
  }
  const std::size_t to_write =
      simulate_enospc ? text.size() / 2 : text.size();
  std::size_t written = 0;
  while (written < to_write) {
    const ssize_t n =
        ::write(fd, text.data() + written, to_write - written);
    if (n < 0) {
      ::close(fd);
      throw std::runtime_error("ShardLedger: short write to " +
                               tmp.string() + ": " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (simulate_enospc) {
    ::close(fd);
    throw std::runtime_error("ShardLedger: no space left on device (chaos) "
                             "writing " + tmp.string());
  }
  if (durable) fsync_fd_or_throw(fd, tmp.string());
  ::close(fd);
  fs::rename(tmp, final_path);
  if (durable) fsync_dir(final_path.parent_path());
}

/// First-publisher-wins install: write a private temp file, then link(2)
/// it to the final name. Link fails with EEXIST when the record is already
/// installed — never overwrites — so racing writers resolve to exactly one
/// complete record. Returns true when this caller's content won.
bool install_exclusive(const fs::path& final_path, const std::string& text) {
  const fs::path tmp = unique_name(final_path.string(), ".tmp.");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text;
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw std::runtime_error("ShardLedger: cannot write " + tmp.string());
    }
  }
  const int linked = ::link(tmp.c_str(), final_path.c_str());
  const int link_errno = errno;
  std::error_code ec;
  fs::remove(tmp, ec);
  if (linked == 0) return true;
  if (link_errno == EEXIST) return false;
  throw std::runtime_error(std::string("ShardLedger: cannot install ") +
                           final_path.string() + ": " +
                           std::strerror(link_errno));
}

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw std::runtime_error("ShardLedger: cannot read " + path.string());
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

[[nodiscard]] std::optional<std::string> read_file_if_exists(
    const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Reads "key value" lines after a magic header into a keyed accessor.
class RecordReader {
 public:
  explicit RecordReader(const std::string& text) : in_(text) {
    std::getline(in_, magic_);
  }
  [[nodiscard]] const std::string& magic() const { return magic_; }
  /// Next "key rest-of-line" pair; false at end.
  bool next(std::string& key, std::string& value) {
    std::string line;
    if (!std::getline(in_, line)) return false;
    const std::size_t space = line.find(' ');
    key = line.substr(0, space);
    value = space == std::string::npos ? "" : line.substr(space + 1);
    return true;
  }

 private:
  std::istringstream in_;
  std::string magic_;
};

[[nodiscard]] std::string shard_file(const char* subdir, const ShardKey& key,
                                     const char* suffix,
                                     const std::string& dir) {
  return (fs::path(dir) / subdir / ("shard-" + key + suffix)).string();
}

}  // namespace

// --- Claim heartbeat ---------------------------------------------------------

struct ShardLedger::Claim::Beat {
  std::string path;
  double interval_s;
  std::mutex mutex;
  std::condition_variable wake;
  bool stop = false;
  // Chaos hook (tests/chaos): SFAB_CHAOS_FREEZE_HEARTBEAT_AFTER_BEATS=<n>
  // silences the heartbeat after n refreshes while the process keeps
  // running — the "live worker that looks dead" straggler case.
  long beats_allowed;
  long beats = 0;
  std::thread thread;

  Beat(std::string p, double s) : path(std::move(p)), interval_s(s) {
    const char* freeze = std::getenv("SFAB_CHAOS_FREEZE_HEARTBEAT_AFTER_BEATS");
    beats_allowed = freeze == nullptr ? -1 : std::atol(freeze);
    thread = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex);
      for (;;) {
        wake.wait_for(lock, std::chrono::duration<double>(interval_s),
                      [this] { return stop; });
        if (stop) return;
        if (beats_allowed >= 0 && beats >= beats_allowed) continue;
        ++beats;
        static obs::Histogram& refresh_ns =
            obs::Registry::global().histogram("dist.ledger.heartbeat_refresh_ns");
        const std::uint64_t t0 = obs::now_ns();
        std::error_code ec;  // claim may have been reclaimed under us
        fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
        refresh_ns.observe(obs::now_ns() - t0);
      }
    });
  }

  ~Beat() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    wake.notify_one();
    thread.join();
  }
};

ShardLedger::Claim::Claim(std::string path, double interval_s)
    : beat_(std::make_unique<Beat>(std::move(path), interval_s)) {}

ShardLedger::Claim::Claim(Claim&&) noexcept = default;

ShardLedger::Claim& ShardLedger::Claim::operator=(Claim&& other) noexcept {
  if (this != &other) {
    release();
    beat_ = std::move(other.beat_);
  }
  return *this;
}

ShardLedger::Claim::~Claim() { release(); }

void ShardLedger::Claim::release() noexcept {
  if (!beat_) return;
  const std::string path = beat_->path;
  beat_.reset();  // stop heartbeating before the file disappears
  std::error_code ec;
  fs::remove(path, ec);
}

// --- ShardLedger -------------------------------------------------------------

ShardLedger::ShardLedger(std::string dir, double stale_after_s)
    : dir_(std::move(dir)), stale_s_(stale_after_s) {
  // NaN and +inf would make every claim look fresh forever, so an idle
  // worker would wait on a dead owner without end.
  if (!(stale_s_ > 0.0 && std::isfinite(stale_s_))) {
    throw std::invalid_argument(
        "ShardLedger: stale_after_s must be finite and > 0");
  }
  for (const char* sub :
       {"claims", "frags", "parts", "progress", "retries", "poison"}) {
    fs::create_directories(fs::path(dir_) / sub);
  }
  // Sweep tombstones orphaned by a reclaimer that crashed between its
  // winning rename and the unlink — they are dead weight the moment the
  // rename won, so removal can never race a live claim.
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / "claims", ec)) {
    if (entry.path().filename().string().find(".stale.") !=
        std::string::npos) {
      std::error_code rm;
      fs::remove(entry.path(), rm);
    }
  }
}

void ShardLedger::publish(const LedgerPlan& plan) {
  std::ostringstream text;
  text << kPlanMagic << "\nruns " << plan.total_runs << "\nshards "
       << plan.shard_count << "\nfingerprint " << plan.fingerprint << '\n';
  // First publisher wins; even two workers of *different* sweeps racing on
  // an empty directory resolve to exactly one plan, and the loser's verify
  // below throws. (Rename would silently last-wins.)
  install_exclusive(fs::path(dir_) / "plan", text.str());
  const LedgerPlan existing = this->plan();
  if (existing.total_runs != plan.total_runs ||
      existing.shard_count != plan.shard_count ||
      existing.fingerprint != plan.fingerprint) {
    throw std::runtime_error(
        "ShardLedger: " + dir_ +
        " already holds a different sweep plan (mismatched worker flags?)");
  }
}

LedgerPlan ShardLedger::plan() const {
  std::istringstream in(read_file(fs::path(dir_) / "plan"));
  std::string magic;
  std::getline(in, magic);
  LedgerPlan plan;
  std::string key_runs, key_shards, key_fp;
  in >> key_runs >> plan.total_runs >> key_shards >> plan.shard_count >>
      key_fp >> plan.fingerprint;
  if (magic != kPlanMagic || key_runs != "runs" || key_shards != "shards" ||
      key_fp != "fingerprint" || !in || plan.total_runs == 0 ||
      plan.shard_count == 0) {
    throw std::runtime_error("ShardLedger: malformed plan file in " + dir_);
  }
  return plan;
}

std::string ShardLedger::claim_path(const ShardKey& key) const {
  return shard_file("claims", key, ".claim", dir_);
}

std::optional<ShardLedger::Claim> ShardLedger::try_claim(
    const ShardKey& key, const std::string& worker_id) {
  const std::string path = claim_path(key);
  // O_CREAT|O_EXCL is the mutual exclusion: exactly one process creates
  // the file; everyone else gets EEXIST.
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return std::nullopt;
  const std::string body = worker_id + "\n";
  // Best-effort attribution only; the claim is the file's existence.
  (void)!::write(fd, body.data(), body.size());
  ::close(fd);
  static obs::Counter& claims =
      obs::Registry::global().counter("dist.ledger.claims");
  claims.increment();
  return Claim(path, stale_s_ / 4.0);
}

bool ShardLedger::reclaim_if_stale(const ShardKey& key) noexcept {
  const std::string path = claim_path(key);
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return false;  // no claim (or just released) — nothing to break
  const auto age = fs::file_time_type::clock::now() - mtime;
  if (std::chrono::duration<double>(age).count() < stale_s_) return false;

  // Break it: rename to a tombstone unique to this call. Rename has
  // exactly one winner; a loser's rename fails because the source is gone.
  // The winner unlinks its tombstone immediately (a crash inside this
  // window leaves an orphan that the constructor sweep removes).
  const std::string tombstone = unique_name(path, ".stale.");
  fs::rename(path, tombstone, ec);
  if (ec) return false;
  fs::remove(tombstone, ec);
  static obs::Counter& stale_breaks =
      obs::Registry::global().counter("dist.ledger.stale_breaks");
  stale_breaks.increment();
  return true;
}

std::optional<double> ShardLedger::claim_age_s(const ShardKey& key) const {
  std::error_code ec;
  const auto mtime = fs::last_write_time(claim_path(key), ec);
  if (ec) return std::nullopt;
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

std::string ShardLedger::fragment_path(const ShardKey& key) const {
  return shard_file("frags", key, ".csv", dir_);
}

bool ShardLedger::fragment_exists(const ShardKey& key) const {
  std::error_code ec;
  return fs::exists(fragment_path(key), ec);
}

void ShardLedger::commit_fragment(const ShardKey& key,
                                  const std::string& csv_text) {
  write_file_atomic(fragment_path(key), csv_text, /*durable=*/true,
                    chaos_commit_enospc());
  static obs::Counter& commits =
      obs::Registry::global().counter("dist.ledger.commits");
  commits.increment();
}

std::string ShardLedger::read_fragment(const ShardKey& key) const {
  return read_file(fragment_path(key));
}

// --- incremental result streaming --------------------------------------------

void ShardLedger::append_rows(const ShardKey& key,
                              const std::vector<std::string>& rows) {
  if (rows.empty()) return;
  std::string text;
  for (const std::string& row : rows) {
    text += row;
    text += '\n';
  }
  const std::string path = shard_file("parts", key, ".rows", dir_);
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    throw std::runtime_error("ShardLedger: cannot append to " + path);
  }
  if (::flock(fd, LOCK_EX) != 0) {
    ::close(fd);
    throw std::runtime_error("ShardLedger: cannot lock " + path);
  }
  const ssize_t written = ::write(fd, text.data(), text.size());
  ::flock(fd, LOCK_UN);
  ::close(fd);
  if (written != static_cast<ssize_t>(text.size())) {
    throw std::runtime_error("ShardLedger: short append to " + path);
  }
}

std::vector<std::string> ShardLedger::committed_prefix(
    const ShardKey& key, std::size_t begin, std::size_t end,
    std::size_t expected_fields) const {
  const auto text =
      read_file_if_exists(shard_file("parts", key, ".rows", dir_));
  if (!text) return {};

  // Index every well-formed, properly terminated line by its leading run
  // index; duplicates (a reclaimed shard's zombie re-appending) keep the
  // first occurrence — the bytes are identical by determinism anyway.
  std::vector<std::optional<std::string>> by_index(end - begin);
  std::size_t at = 0;
  while (at < text->size()) {
    const std::size_t eol = text->find('\n', at);
    if (eol == std::string::npos) break;  // torn trailing append: drop
    const std::string line = text->substr(at, eol - at);
    at = eol + 1;
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) continue;
    const std::optional<std::size_t> index =
        parse_number<std::size_t>(std::string_view(line).substr(0, comma));
    if (!index || *index < begin || *index >= end) continue;
    if (expected_fields != 0) {
      const std::size_t commas =
          static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
      if (commas + 1 != expected_fields) continue;
    }
    auto& slot = by_index[*index - begin];
    if (!slot) slot = line;
  }

  std::vector<std::string> prefix;
  for (auto& slot : by_index) {
    if (!slot) break;
    prefix.push_back(std::move(*slot));
  }
  return prefix;
}

void ShardLedger::write_progress(const ShardKey& key,
                                 const ProgressRecord& progress) {
  std::ostringstream text;
  text << kProgressMagic << "\ndone " << progress.done << "\ntotal "
       << progress.total << "\nstamp_ms " << progress.stamp_ms << '\n';
  // Advisory record: atomic rename so readers never see a torn file, but
  // no fsync — losing the last progress write costs nothing.
  write_file_atomic(shard_file("progress", key, ".prog", dir_), text.str(),
                    /*durable=*/false);
}

std::optional<ProgressRecord> ShardLedger::read_progress(
    const ShardKey& key) const {
  const auto text =
      read_file_if_exists(shard_file("progress", key, ".prog", dir_));
  if (!text) return std::nullopt;
  RecordReader reader(*text);
  if (reader.magic() != kProgressMagic) return std::nullopt;
  ProgressRecord progress;
  std::string field, value;
  while (reader.next(field, value)) {
    if (field == "done" || field == "total") {
      const std::optional<std::size_t> n = parse_number<std::size_t>(value);
      if (!n) return std::nullopt;
      (field == "done" ? progress.done : progress.total) = *n;
    } else if (field == "stamp_ms") {
      progress.stamp_ms = std::atoll(value.c_str());
    }
  }
  return progress;
}

void ShardLedger::cleanup_shard(const ShardKey& key) noexcept {
  std::error_code ec;
  fs::remove(shard_file("parts", key, ".rows", dir_), ec);
  fs::remove(shard_file("progress", key, ".prog", dir_), ec);
}

// --- retry budget + quarantine -----------------------------------------------

unsigned ShardLedger::reclaim_count(const ShardKey& key) const {
  const std::string stem = "shard-" + key + ".r";
  unsigned count = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / "retries", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() || name.compare(0, stem.size(), stem) != 0) {
      continue;
    }
    const std::optional<unsigned> n =
        parse_number<unsigned>(std::string_view(name).substr(stem.size()));
    if (n) count = std::max(count, *n);
  }
  return count;
}

unsigned ShardLedger::record_reclaim(const ShardKey& key) {
  unsigned n = reclaim_count(key) + 1;
  for (;;) {
    const std::string path =
        shard_file("retries", key, (".r" + std::to_string(n)).c_str(), dir_);
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      static obs::Counter& reclaims =
          obs::Registry::global().counter("dist.ledger.reclaims");
      reclaims.increment();
      return n;
    }
    if (errno != EEXIST) {
      throw std::runtime_error("ShardLedger: cannot record retry strike " +
                               path + ": " + std::strerror(errno));
    }
    ++n;  // a racing worker took this strike number; the next is ours
  }
}

bool ShardLedger::quarantine(const PoisonRecord& record) {
  std::ostringstream text;
  text << kPoisonMagic << "\nkey " << record.key << "\nbegin " << record.begin
       << "\nend " << record.end << "\ncommitted " << record.committed
       << "\nsuspect " << record.suspect << "\nreclaims " << record.reclaims
       << "\nworker " << record.worker << "\nreason " << record.reason
       << '\n';
  const bool installed = install_exclusive(
      shard_file("poison", record.key, ".poison", dir_), text.str());
  if (installed) {
    static obs::Counter& quarantines =
        obs::Registry::global().counter("dist.ledger.quarantines");
    quarantines.increment();
  }
  return installed;
}

namespace {

[[nodiscard]] std::optional<PoisonRecord> parse_poison(
    const std::string& text) {
  RecordReader reader(text);
  if (reader.magic() != kPoisonMagic) return std::nullopt;
  PoisonRecord record;
  std::string field, value;
  while (reader.next(field, value)) {
    if (field == "key") {
      record.key = value;
    } else if (field == "begin" || field == "end" || field == "committed" ||
               field == "suspect") {
      const std::optional<std::size_t> n = parse_number<std::size_t>(value);
      if (!n) return std::nullopt;
      (field == "begin"       ? record.begin
       : field == "end"       ? record.end
       : field == "committed" ? record.committed
                              : record.suspect) = *n;
    } else if (field == "reclaims") {
      const std::optional<unsigned> n = parse_number<unsigned>(value);
      if (!n) return std::nullopt;
      record.reclaims = *n;
    } else if (field == "worker") {
      record.worker = value;
    } else if (field == "reason") {
      record.reason = value;
    }
  }
  if (record.key.empty() || record.begin >= record.end) return std::nullopt;
  return record;
}

}  // namespace

std::optional<PoisonRecord> ShardLedger::read_poison(
    const ShardKey& key) const {
  const auto text =
      read_file_if_exists(shard_file("poison", key, ".poison", dir_));
  if (!text) return std::nullopt;
  return parse_poison(*text);
}

std::vector<PoisonRecord> ShardLedger::poisoned() const {
  std::vector<PoisonRecord> records;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / "poison", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 8 || name.compare(name.size() - 7, 7, ".poison") != 0) {
      continue;
    }
    if (const auto text = read_file_if_exists(entry.path())) {
      if (auto record = parse_poison(*text)) records.push_back(*record);
    }
  }
  return records;
}

std::string local_worker_id(const std::string& tag) {
  char host[256] = "unknown-host";
  (void)::gethostname(host, sizeof host - 1);
  std::string id = std::string(host) + ":" + std::to_string(::getpid());
  if (!tag.empty()) id += ":" + tag;
  return id;
}

}  // namespace sfab::dist
