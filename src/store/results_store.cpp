#include "store/results_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace repro::store {
namespace {

constexpr char kUnitSep = '\x1f';

/// EINTR-safe full write of one buffer to fd (session_wal idiom).
[[nodiscard]] bool write_fully(int fd, const char* data, std::size_t length) {
  std::size_t done = 0;
  while (done < length) {
    const ssize_t n = ::write(fd, data + done, length - done);
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

/// fsync the directory containing `path` so creates/renames survive a crash.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

[[noreturn]] void store_fail(const std::string& path, const std::string& what) {
  throw StoreError("results store " + path + ": " + what);
}

std::uint64_t hash_text(std::uint64_t seed, std::string_view text) {
  std::uint64_t h = seed ^ 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct ParsedRecord {
  StoreKey key;
  tuner::Configuration config;
  double value = 0.0;
  bool valid = false;
};

/// Parse one log line; throws (JsonError/std::runtime_error) on damage.
ParsedRecord parse_record(std::string_view line) {
  const Json record = Json::parse(line);
  if (!record.is_object()) throw std::runtime_error("record is not an object");
  ParsedRecord parsed;
  const Json* b = record.find("b");
  const Json* a = record.find("a");
  const Json* s = record.find("s");
  const Json* c = record.find("c");
  const Json* ok = record.find("ok");
  if (b == nullptr || a == nullptr || s == nullptr || c == nullptr || ok == nullptr) {
    throw std::runtime_error("missing record field");
  }
  parsed.key.benchmark = b->as_string();
  parsed.key.arch = a->as_string();
  parsed.key.fingerprint = s->as_string();
  for (const Json& value : c->as_array()) {
    parsed.config.push_back(static_cast<int>(value.as_int64()));
  }
  if (parsed.config.empty()) throw std::runtime_error("empty config");
  parsed.valid = ok->as_bool();
  const Json* v = record.find("v");
  parsed.value = (v == nullptr || v->is_null()) ? std::numeric_limits<double>::quiet_NaN()
                                                : v->as_double();
  return parsed;
}

}  // namespace

std::string StoreKey::flat() const {
  std::string flat;
  flat.reserve(benchmark.size() + arch.size() + fingerprint.size() + 2);
  flat += benchmark;
  flat += kUnitSep;
  flat += arch;
  flat += kUnitSep;
  flat += fingerprint;
  return flat;
}

std::string config_flat_key(const tuner::Configuration& config) {
  std::string flat;
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i != 0) flat += ',';
    flat += std::to_string(config[i]);
  }
  return flat;
}

ResultsStore::ResultsStore(StoreOptions options) : options_(std::move(options)) {
  std::size_t shards = 1;
  while (shards < std::max<std::size_t>(options_.shards, 1)) shards <<= 1;
  shard_count_ = shards;
  shards_ = std::make_unique<Shard[]>(shard_count_);
}

ResultsStore::~ResultsStore() {
  MutexLock lock(log_mutex_);
  if (fd_ >= 0) (void)::close(fd_);
  fd_ = -1;
}

std::string ResultsStore::log_path() const {
  return options_.dir + "/results.log";
}

ResultsStore::Shard& ResultsStore::shard_for(const std::string& tenant_flat) const noexcept {
  std::uint64_t state = hash_text(0, tenant_flat);
  return shards_[splitmix64(state) & (shard_count_ - 1)];
}

ResultsStore::InsertOutcome ResultsStore::insert_in_memory(
    const StoreKey& key, const tuner::Configuration& config, double value, bool valid,
    std::string* error) {
  const std::string tenant_flat = key.flat();
  const std::string config_key = config_flat_key(config);
  Shard& shard = shard_for(tenant_flat);
  MutexLock lock(shard.mutex);
  auto [it, created] = shard.by_key.try_emplace(tenant_flat);
  Tenant& tenant = it->second;
  if (created) {
    tenant.key = key;
  } else if (!tenant.rows.empty() && tenant.rows.front().config.size() != config.size()) {
    if (error != nullptr) {
      *error = "config has " + std::to_string(config.size()) + " values but tenant " +
               key.benchmark + "/" + key.arch + " holds " +
               std::to_string(tenant.rows.front().config.size()) +
               "-dimensional history for space " + key.fingerprint;
    }
    return InsertOutcome::kIncompatible;
  }
  if (!tenant.by_config.emplace(config_key, tenant.rows.size()).second) {
    return InsertOutcome::kDuplicate;  // first value wins
  }
  tenant.rows.push_back(StoreRecord{config, value, valid});
  return InsertOutcome::kInserted;
}

void ResultsStore::evict_over_capacity() {
  if (options_.capacity == 0) return;
  while (live_records_ > options_.capacity && !fifo_.empty()) {
    const FifoEntry victim = std::move(fifo_.front());
    fifo_.pop_front();
    Shard& shard = shard_for(victim.tenant_flat);
    MutexLock lock(shard.mutex);
    auto it = shard.by_key.find(victim.tenant_flat);
    if (it == shard.by_key.end()) continue;
    Tenant& tenant = it->second;
    const auto row_it = tenant.by_config.find(victim.config_flat);
    if (row_it == tenant.by_config.end()) continue;
    const std::size_t row = row_it->second;
    tenant.by_config.erase(row_it);
    tenant.rows.erase(tenant.rows.begin() + static_cast<std::ptrdiff_t>(row));
    // Pure index fix-up: every entry above the erased row shifts by one,
    // in any visit order.
    // NOLINTNEXTLINE(reprolint-unordered-iteration)
    for (auto& [config_key, index] : tenant.by_config) {
      (void)config_key;
      if (index > row) --index;
    }
    if (tenant.rows.empty()) shard.by_key.erase(it);
    --live_records_;
    ++evictions_;
  }
}

std::string ResultsStore::encode_record(const StoreKey& key,
                                        const tuner::Configuration& config, double value,
                                        bool valid) const {
  Json record = Json::object();
  record.set("b", key.benchmark);
  record.set("a", key.arch);
  record.set("s", key.fingerprint);
  Json array = Json::array();
  for (const int v : config) array.push_back(v);
  record.set("c", std::move(array));
  if (std::isnan(value)) {
    record.set("v", nullptr);
  } else {
    record.set("v", value);
  }
  record.set("ok", valid);
  std::string line = record.dump();
  line.push_back('\n');
  return line;
}

void ResultsStore::append_to_log(const StoreKey& key, const tuner::Configuration& config,
                                 double value, bool valid) {
  if (fd_ < 0) return;
  const std::string line = encode_record(key, config, value, valid);
  if (!write_fully(fd_, line.data(), line.size()) ||
      (options_.fsync_appends && ::fsync(fd_) != 0)) {
    log_error("results store: append failed for {}: {}", log_path(),
              std::strerror(errno));
    (void)::close(fd_);
    fd_ = -1;  // stop retrying a dead log on every subsequent record
    ++io_errors_;
    return;
  }
  ++log_records_;
  log_bytes_ += line.size();
}

bool ResultsStore::append(const StoreKey& key, const tuner::Configuration& config,
                          double value, bool valid) {
  if (config.empty()) throw StoreError("results store: empty configuration");
  // log_mutex_ held across the index insert AND the log write: concurrent
  // appends to one tenant must land in the log in the same order they landed
  // in the rows vector, or a reload would replay a different insertion order
  // than the live store holds (breaking digest()-identity after restart).
  MutexLock lock(log_mutex_);
  std::string error;
  const InsertOutcome outcome = insert_in_memory(key, config, value, valid, &error);
  switch (outcome) {
    case InsertOutcome::kDuplicate:
      ++duplicates_;
      return false;
    case InsertOutcome::kIncompatible:
      ++rejected_;
      throw IncompatibleSpaceError("results store: " + error);
    case InsertOutcome::kInserted:
      break;
  }
  ++appends_;
  ++live_records_;
  fifo_.push_back(FifoEntry{key.flat(), config_flat_key(config)});
  append_to_log(key, config, value, valid);
  evict_over_capacity();
  // Opportunistic compaction: once evictions have left more dead lines in
  // the log than live records (and at least compact_slack of them), the log
  // no longer pays for its size.
  if (fd_ >= 0 && log_records_ > live_records_ &&
      log_records_ - live_records_ > std::max(options_.compact_slack, live_records_)) {
    compact_locked();
  }
  return true;
}

void ResultsStore::load() {
  MutexLock lock(log_mutex_);
  if (loaded_) throw StoreError("results store: load() called twice");
  loaded_ = true;
  if (!persistent()) return;
  const auto load_start = std::chrono::steady_clock::now();
  if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    store_fail(options_.dir, std::strerror(errno));
  }
  const std::string path = log_path();
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream whole;
      whole << in.rdbuf();
      text = whole.str();
    }
  }

  // Replay, applying the same dedup + capacity rules as live appends so the
  // surviving set is a pure function of the append stream (torn-tail rules
  // per session_wal: drop an unterminated or malformed final line, refuse a
  // malformed interior one).
  std::uint64_t valid_bytes = 0;
  std::size_t offset = 0;
  std::size_t line_count = 0;
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    const bool terminated = newline != std::string::npos;
    if (!terminated) {
      torn_tail_ = true;  // crash interrupted the final append
      break;
    }
    const std::string_view line(text.data() + offset, newline - offset);
    const bool final_line = newline + 1 == text.size();
    try {
      const ParsedRecord parsed = parse_record(line);
      std::string error;
      const InsertOutcome outcome =
          insert_in_memory(parsed.key, parsed.config, parsed.value, parsed.valid, &error);
      if (outcome == InsertOutcome::kIncompatible) {
        throw std::runtime_error(error);
      }
      if (outcome == InsertOutcome::kInserted) {
        ++live_records_;
        fifo_.push_back(FifoEntry{parsed.key.flat(), config_flat_key(parsed.config)});
        evict_over_capacity();
        ++loaded_records_;
      } else {
        ++duplicates_;
      }
    } catch (const StoreError&) {
      throw;
    } catch (const std::exception& error) {
      if (final_line) {
        log_warn("results store: dropping malformed final record in {}: {}", path,
                 error.what());
        torn_tail_ = true;
        break;
      }
      store_fail(path, std::string("malformed interior record: ") + error.what());
    }
    ++line_count;
    offset = newline + 1;
    valid_bytes = offset;
  }
  log_records_ = line_count;
  log_bytes_ = valid_bytes;

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) store_fail(path, std::strerror(errno));
  sync_parent_dir(path);
  // Truncate any torn tail away before the first new append lands after it.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 || ::fsync(fd) != 0) {
    const std::string what = std::strerror(errno);
    (void)::close(fd);
    store_fail(path, "cannot truncate torn tail: " + what);
  }
  fd_ = fd;
  // Diagnostic load timing only: never feeds any result (see reprolint
  // allowlist justification for src/store/).
  const auto elapsed = std::chrono::steady_clock::now() - load_start;
  log_info("results store: loaded {} records ({} tenants) from {} in {}ms{}",
           live_records_, tenant_count(), path,
           std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
           torn_tail_ ? " [torn tail dropped]" : "");
}

std::vector<StoreRecord> ResultsStore::query(const StoreKey& key,
                                             std::size_t max_rows) const {
  const std::string tenant_flat = key.flat();
  Shard& shard = shard_for(tenant_flat);
  MutexLock lock(shard.mutex);
  const auto it = shard.by_key.find(tenant_flat);
  if (it == shard.by_key.end()) return {};
  const std::vector<StoreRecord>& rows = it->second.rows;
  if (max_rows == 0 || rows.size() <= max_rows) return rows;
  return std::vector<StoreRecord>(rows.end() - static_cast<std::ptrdiff_t>(max_rows),
                                  rows.end());
}

std::size_t ResultsStore::tenant_rows(const StoreKey& key) const {
  const std::string tenant_flat = key.flat();
  Shard& shard = shard_for(tenant_flat);
  MutexLock lock(shard.mutex);
  const auto it = shard.by_key.find(tenant_flat);
  return it == shard.by_key.end() ? 0 : it->second.rows.size();
}

std::vector<TenantSnapshot> ResultsStore::export_tenants(const std::string& benchmark,
                                                         const std::string& arch,
                                                         std::size_t max_records) const {
  return export_page(benchmark, arch, max_records, "", 0).tenants;
}

ResultsStore::ExportPage ResultsStore::export_page(
    const std::string& benchmark, const std::string& arch,
    std::size_t max_records, const std::string& start_tenant_flat,
    std::size_t start_row) const {
  // Collect under per-shard locks, then sort: emission order is always the
  // sorted copy, never the hash-map order.
  std::vector<TenantSnapshot> all;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    for (const auto& [flat, tenant] : shard.by_key) {  // NOLINT(reprolint-unordered-iteration): collect-then-sort — order is normalized below
      (void)flat;
      if (!benchmark.empty() && tenant.key.benchmark != benchmark) continue;
      if (!arch.empty() && tenant.key.arch != arch) continue;
      all.push_back(TenantSnapshot{tenant.key, tenant.rows});
    }
  }
  std::sort(all.begin(), all.end(), [](const TenantSnapshot& a, const TenantSnapshot& b) {
    return a.key.flat() < b.key.flat();
  });

  ExportPage page;
  std::size_t budget = max_records;
  for (TenantSnapshot& tenant : all) {
    const std::string flat = tenant.key.flat();
    if (!start_tenant_flat.empty() && flat < start_tenant_flat) continue;
    const std::size_t row = flat == start_tenant_flat ? start_row : 0;
    if (row >= tenant.rows.size()) continue;  // already fully emitted
    if (max_records > 0 && budget == 0) {
      page.more = true;
      page.next_tenant_flat = flat;
      page.next_row = row;
      break;
    }
    const std::size_t available = tenant.rows.size() - row;
    const std::size_t take =
        max_records == 0 ? available : std::min(available, budget);
    TenantSnapshot slice{tenant.key, {}};
    slice.rows.assign(tenant.rows.begin() + static_cast<std::ptrdiff_t>(row),
                      tenant.rows.begin() + static_cast<std::ptrdiff_t>(row + take));
    page.tenants.push_back(std::move(slice));
    if (max_records > 0) budget -= take;
    if (take < available) {
      page.more = true;
      page.next_tenant_flat = flat;
      page.next_row = row + take;
      break;
    }
  }
  return page;
}

std::size_t ResultsStore::import_tenants(const std::vector<TenantSnapshot>& tenants) {
  std::size_t imported = 0;
  for (const TenantSnapshot& tenant : tenants) {
    for (const StoreRecord& row : tenant.rows) {
      if (append(tenant.key, row.config, row.value, row.valid)) ++imported;
    }
  }
  return imported;
}

StoreStats ResultsStore::stats() const {
  StoreStats stats;
  stats.enabled = true;
  stats.dir = options_.dir;
  {
    MutexLock lock(log_mutex_);
    stats.records = live_records_;
    stats.appends = appends_;
    stats.duplicates = duplicates_;
    stats.rejected = rejected_;
    stats.evictions = evictions_;
    stats.compactions = compactions_;
    stats.io_errors = io_errors_;
    stats.log_records = log_records_;
    stats.log_bytes = log_bytes_;
    stats.loaded_records = loaded_records_;
    stats.torn_tail = torn_tail_;
  }
  stats.tenants = tenant_count();
  return stats;
}

std::size_t ResultsStore::tenant_count() const {
  std::size_t tenants = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    tenants += shard.by_key.size();
  }
  return tenants;
}

std::size_t ResultsStore::compact() {
  MutexLock lock(log_mutex_);
  if (fd_ < 0) return 0;
  const std::size_t before = log_records_;
  compact_locked();
  return before - log_records_;
}

void ResultsStore::compact_locked() {
  const std::string path = log_path();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    log_error("results store: compaction cannot create {}: {}", tmp,
              std::strerror(errno));
    ++io_errors_;
    return;
  }
  // The FIFO is exactly the live set in insertion order; rewriting from it
  // preserves replay order (and therefore eviction determinism) on reload.
  std::uint64_t bytes = 0;
  std::size_t written = 0;
  bool ok = true;
  for (const FifoEntry& entry : fifo_) {
    std::string line;
    {
      Shard& shard = shard_for(entry.tenant_flat);
      MutexLock shard_lock(shard.mutex);
      const auto it = shard.by_key.find(entry.tenant_flat);
      if (it == shard.by_key.end()) continue;
      const Tenant& tenant = it->second;
      const auto row_it = tenant.by_config.find(entry.config_flat);
      if (row_it == tenant.by_config.end()) continue;
      const StoreRecord& row = tenant.rows[row_it->second];
      line = encode_record(tenant.key, row.config, row.value, row.valid);
    }
    if (!write_fully(fd, line.data(), line.size())) {
      ok = false;
      break;
    }
    bytes += line.size();
    ++written;
  }
  if (!ok || ::fsync(fd) != 0 || ::close(fd) != 0 ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    log_error("results store: compaction of {} failed: {}", path, std::strerror(errno));
    if (!ok) (void)::close(fd);
    (void)::unlink(tmp.c_str());
    ++io_errors_;
    return;
  }
  sync_parent_dir(path);
  // Future appends go to the compacted file: the old fd points at the
  // unlinked inode.
  const int new_fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ >= 0) (void)::close(fd_);
  fd_ = new_fd;
  if (new_fd < 0) {
    log_error("results store: cannot reopen {} after compaction: {}", path,
              std::strerror(errno));
    ++io_errors_;
  }
  log_records_ = written;
  log_bytes_ = bytes;
  ++compactions_;
}

std::size_t ResultsStore::reset() {
  MutexLock lock(log_mutex_);
  // Lock order log_mutex_ → shard, same as append/eviction/compaction.
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    MutexLock shard_lock(shard.mutex);
    for (const auto& [flat, tenant] : shard.by_key) dropped += tenant.rows.size();  // NOLINT(reprolint-unordered-iteration)
    shard.by_key.clear();
  }
  fifo_.clear();
  live_records_ = 0;
  log_records_ = 0;
  log_bytes_ = 0;
  loaded_records_ = 0;
  torn_tail_ = false;
  if (fd_ >= 0) {
    if (::ftruncate(fd_, 0) != 0 || ::fsync(fd_) != 0) {
      log_error("results store: reset cannot truncate {}: {}", log_path(),
                std::strerror(errno));
      ++io_errors_;
    }
  }
  if (dropped != 0) log_info("results store: reset dropped {} live row(s)", dropped);
  return dropped;
}

std::uint64_t ResultsStore::digest() const {
  const std::vector<TenantSnapshot> tenants = export_tenants();
  std::uint64_t h = hash_text(0, "store-digest:v1");
  for (const TenantSnapshot& tenant : tenants) {
    h = hash_text(h, tenant.key.flat());
    for (const StoreRecord& row : tenant.rows) {
      h = hash_text(h, config_flat_key(row.config));
      std::uint64_t bits = 0;
      if (!std::isnan(row.value)) std::memcpy(&bits, &row.value, sizeof bits);
      std::uint64_t state = h ^ bits ^ (row.valid ? 1u : 0u);
      h = splitmix64(state);
    }
  }
  return h;
}

}  // namespace repro::store
