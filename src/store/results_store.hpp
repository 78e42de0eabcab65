#pragma once
// Persistent cross-tenant results store.
//
// A daemon-wide, append-only history of (benchmark, arch, space fingerprint,
// config) → observed runtime, surviving restarts: the PR-2 mean cache
// generalized across sessions, tenants and process lifetimes. Warm-started
// searches (tuner/warm_start.hpp) seed their models from a tenant's prior
// history instead of random init.
//
// Durability follows the session-WAL rules (service/session_wal): one
// JSON-lines log file (`<dir>/results.log`), each record appended with a
// single write() and fsync()'d before append() returns, so a record the
// caller acted on is never lost to a crash. On load, an unterminated or
// malformed *final* line is a torn tail — dropped and truncated away before
// the next append — while a malformed interior record is a hard error
// (StoreError): an append-only file killed mid-write can only be damaged at
// its end, so interior damage means something else corrupted the log.
//
// Record format, one observation per line (keys kept short — at capacity a
// log line is ~80 bytes):
//   {"b":"<benchmark>","a":"<arch>","s":"<fingerprint>",
//    "c":[<config ints>],"v":<runtime us|null>,"ok":<bool>}
//
// Semantics:
//   - Dedup is first-value-wins per (key, config): appending a config a
//     tenant already holds is a counted in-memory no-op and writes nothing.
//     This makes re-appends idempotent, which is load-bearing: session-WAL
//     recovery and ship-applied replica tells re-append their records, and
//     idempotency is what keeps primary, standby and restarted stores
//     byte-identical (ResultsStore::digest()).
//   - Capacity is bounded; eviction is strict global FIFO by insertion
//     order, applied identically during live appends and log replay, so the
//     surviving set is a pure function of the append stream.
//   - Compaction rewrites the log to the live set (tmp + fsync + rename +
//     parent-dir fsync) once evictions have left enough dead lines behind;
//     it runs automatically inside append() past a threshold.
//   - The in-memory index is sharded with per-shard mutexes, so queries and
//     stats never wait behind an in-flight fsync.
//
// A record whose config length disagrees with the rows a tenant already
// holds cannot come from the same space; append() and import rejects it
// with the typed IncompatibleSpaceError.

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "tuner/search_space.hpp"

namespace repro::store {

/// Base class of all typed store failures.
struct StoreError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A record is structurally incompatible with the space its tenant key
/// declares (config dimensionality mismatch): the space fingerprint says
/// the histories cannot be mixed.
struct IncompatibleSpaceError : StoreError {
  using StoreError::StoreError;
};

/// Identity of one tenant history: the kernel being tuned, the architecture
/// it runs on, and the canonical fingerprint of the search space
/// (store/fingerprint.hpp).
struct StoreKey {
  std::string benchmark;
  std::string arch;
  std::string fingerprint;

  /// Flat map key; fields are joined with an ASCII unit separator so no
  /// benchmark/arch naming can alias two keys.
  [[nodiscard]] std::string flat() const;
};

/// One stored observation.
struct StoreRecord {
  tuner::Configuration config;
  double value = 0.0;  ///< runtime in µs; NaN when the evaluation failed
  bool valid = false;
};

/// One tenant's full history, insertion-ordered. Used by export/import.
struct TenantSnapshot {
  StoreKey key;
  std::vector<StoreRecord> rows;
};

struct StoreOptions {
  /// Directory holding `results.log`. Empty = in-memory only (no
  /// persistence; used by tests and benches).
  std::string dir;
  /// Maximum live records across all tenants; 0 = unbounded. Exceeding it
  /// evicts the globally oldest record (deterministic FIFO).
  std::size_t capacity = 1u << 20;
  /// Index shard count (rounded up to a power of two, minimum 1).
  std::size_t shards = 16;
  /// fsync() after every append. Leave on for durability; benches building
  /// large fixture logs turn it off (the crash guarantee then lapses).
  bool fsync_appends = true;
  /// Compact when dead log lines exceed both this slack and the live count.
  std::size_t compact_slack = 1024;
};

/// The `store_stats` reply (its wire table is in service/status_codec.cpp).
struct StoreStats {
  bool enabled = false;          ///< false: the daemon has no results store
  std::string dir;               ///< the store's directory
  std::size_t records = 0;       ///< live records across all tenants
  std::size_t tenants = 0;       ///< distinct (benchmark, arch, space) keys
  std::uint64_t appends = 0;     ///< append() calls that stored a new record
  std::uint64_t duplicates = 0;  ///< append() calls dropped by dedup
  std::uint64_t rejected = 0;    ///< appends refused as incompatible
  std::uint64_t evictions = 0;   ///< records dropped by the capacity bound
  std::uint64_t compactions = 0;
  std::uint64_t io_errors = 0;   ///< failed log writes (records kept in memory)
  std::size_t log_records = 0;   ///< lines in the on-disk log (live + dead)
  std::uint64_t log_bytes = 0;
  std::size_t loaded_records = 0;  ///< records recovered by load()
  bool torn_tail = false;          ///< load() dropped a torn final line
  /// ResultsStore::digest(); stats() leaves it 0, since it reads every row.
  std::uint64_t digest = 0;
};

class ResultsStore {
 public:
  explicit ResultsStore(StoreOptions options);
  ~ResultsStore();

  ResultsStore(const ResultsStore&) = delete;
  ResultsStore& operator=(const ResultsStore&) = delete;

  /// Replay the on-disk log into the index (creating dir/log as needed) and
  /// open it for appends. Call once, before any append. Throws StoreError
  /// on unreadable logs or malformed interior records; a torn final line is
  /// dropped and truncated away. No-op in in-memory mode.
  void load();

  /// Durably record one observation. Returns true when the record was new
  /// (and, in persistent mode, fsync'd to the log before returning); false
  /// when dedup dropped it. Throws IncompatibleSpaceError when `config`'s
  /// dimensionality contradicts the tenant's existing rows.
  bool append(const StoreKey& key, const tuner::Configuration& config, double value,
              bool valid);

  /// A tenant's live history in insertion order. `max_rows` > 0 keeps only
  /// the most recent rows. Unknown keys return an empty vector.
  [[nodiscard]] std::vector<StoreRecord> query(const StoreKey& key,
                                               std::size_t max_rows = 0) const;

  /// Number of live rows for one tenant.
  [[nodiscard]] std::size_t tenant_rows(const StoreKey& key) const;

  /// Every tenant (optionally filtered by benchmark and/or arch), sorted by
  /// key so the export is deterministic. `max_records` > 0 caps the total
  /// rows exported (whole tenants in sorted order, then a row-truncated
  /// final tenant).
  [[nodiscard]] std::vector<TenantSnapshot> export_tenants(
      const std::string& benchmark = "", const std::string& arch = "",
      std::size_t max_records = 0) const;

  /// One page of export_tenants plus the resume position. `more` is exact
  /// (not a heuristic): true iff rows past this page exist. Rows within a
  /// tenant are append-ordered and append-only, so a (tenant flat key, row
  /// offset) resume point stays valid across pages even while concurrent
  /// appends grow the store.
  struct ExportPage {
    std::vector<TenantSnapshot> tenants;
    bool more = false;
    std::string next_tenant_flat;  ///< resume tenant key (valid when more)
    std::size_t next_row = 0;      ///< resume row offset within that tenant
  };

  /// Export up to `max_records` rows (0 = unlimited) starting at the resume
  /// point: tenants with flat key < `start_tenant_flat` are skipped, and the
  /// first `start_row` rows of the tenant equal to it are skipped.
  /// export_tenants() is this with an empty resume point.
  [[nodiscard]] ExportPage export_page(const std::string& benchmark,
                                       const std::string& arch,
                                       std::size_t max_records,
                                       const std::string& start_tenant_flat,
                                       std::size_t start_row) const;

  /// Append every row of every snapshot (dedup applies). Returns the number
  /// of newly stored records.
  std::size_t import_tenants(const std::vector<TenantSnapshot>& tenants);

  [[nodiscard]] StoreStats stats() const;

  /// Distinct live tenant keys.
  [[nodiscard]] std::size_t tenant_count() const;

  /// Rewrite the log to the live set; returns dead lines dropped. No-op in
  /// in-memory mode.
  std::size_t compact();

  /// Drop every live row and truncate the log to empty (fsync'd). The
  /// demote path: a deposed primary's store may hold rows the new primary
  /// never acknowledged, and a rejoining standby must re-seed from an
  /// empty store or the digest gate can never pass. Returns rows dropped.
  std::size_t reset();

  /// Order-insensitive identity hash over every live tenant and row.
  /// Two stores fed equivalent append streams — primary vs standby, live vs
  /// recovered — must agree on this digest.
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] bool persistent() const noexcept { return !options_.dir.empty(); }
  [[nodiscard]] std::string log_path() const;

 private:
  struct Tenant {
    StoreKey key;
    std::vector<StoreRecord> rows;  ///< insertion order (minus evictions)
    /// config flat key → index into rows, for dedup and eviction.
    std::unordered_map<std::string, std::size_t> by_config;
  };
  struct Shard {
    mutable repro::Mutex mutex;
    std::unordered_map<std::string, Tenant> by_key GUARDED_BY(mutex);
  };
  /// Global FIFO entry: enough to find a record again at eviction time.
  struct FifoEntry {
    std::string tenant_flat;
    std::string config_flat;
  };

  enum class InsertOutcome { kInserted, kDuplicate, kIncompatible };

  [[nodiscard]] Shard& shard_for(const std::string& tenant_flat) const noexcept;
  /// Index-only insert (no log). Fills `error` on kIncompatible.
  InsertOutcome insert_in_memory(const StoreKey& key, const tuner::Configuration& config,
                                 double value, bool valid, std::string* error);
  /// Drop the globally oldest records until the live count fits capacity.
  void evict_over_capacity() REQUIRES(log_mutex_);
  void append_to_log(const StoreKey& key, const tuner::Configuration& config,
                     double value, bool valid) REQUIRES(log_mutex_);
  void compact_locked() REQUIRES(log_mutex_);
  [[nodiscard]] std::string encode_record(const StoreKey& key,
                                          const tuner::Configuration& config,
                                          double value, bool valid) const;

  StoreOptions options_;
  std::size_t shard_count_ = 1;
  std::unique_ptr<Shard[]> shards_;

  /// Guards the log fd, the global FIFO, and every counter. Lock order is
  /// log_mutex_ → shard everywhere (append, eviction, compaction, load);
  /// shard mutexes are never held while acquiring log_mutex_, so the order
  /// cannot deadlock — and readers (query/stats/export) take only shard
  /// locks, so they never wait behind an in-flight fsync.
  mutable repro::Mutex log_mutex_;
  int fd_ GUARDED_BY(log_mutex_) = -1;
  bool loaded_ GUARDED_BY(log_mutex_) = false;
  std::deque<FifoEntry> fifo_ GUARDED_BY(log_mutex_);
  std::size_t live_records_ GUARDED_BY(log_mutex_) = 0;
  std::size_t log_records_ GUARDED_BY(log_mutex_) = 0;
  std::uint64_t log_bytes_ GUARDED_BY(log_mutex_) = 0;
  std::uint64_t appends_ GUARDED_BY(log_mutex_) = 0;
  std::uint64_t duplicates_ GUARDED_BY(log_mutex_) = 0;
  std::uint64_t rejected_ GUARDED_BY(log_mutex_) = 0;
  std::uint64_t evictions_ GUARDED_BY(log_mutex_) = 0;
  std::uint64_t compactions_ GUARDED_BY(log_mutex_) = 0;
  std::uint64_t io_errors_ GUARDED_BY(log_mutex_) = 0;
  std::size_t loaded_records_ GUARDED_BY(log_mutex_) = 0;
  bool torn_tail_ GUARDED_BY(log_mutex_) = false;
};

/// Flat config key ("4,2,1"); shared by the index and tests.
[[nodiscard]] std::string config_flat_key(const tuner::Configuration& config);

}  // namespace repro::store
