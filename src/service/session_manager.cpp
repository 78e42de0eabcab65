#include "service/session_manager.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "common/log.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

/// Keep enough tombstones to cover any realistic retry window without
/// letting a pathological eviction storm grow the list unboundedly.
constexpr std::size_t kTombstoneCap = 4096;

}  // namespace

SessionManager::SessionManager(SessionLimits limits,
                               std::shared_ptr<store::ResultsStore> store)
    : limits_(std::move(limits)), store_(std::move(store)) {
  // A shipper also exists (disabled, port 0) for every durable daemon:
  // reseed() retargets it at a follower later, and shipper_ must be
  // immutable after construction — lazy creation would race the unlocked
  // reads on the tell path.
  if (limits_.ship.port != 0 || !limits_.state_dir.empty()) {
    ShipConfig ship = limits_.ship;
    ship.state_dir = limits_.state_dir;  // resync source = our own journals
    shipper_ = std::make_unique<WalShipper>(std::move(ship), store_);
  }
}

std::shared_ptr<SessionManager::ManagedSession> SessionManager::make_session(
    const OpenParams& params, const std::string& token) const {
  std::unique_ptr<tuner::SearchAlgorithm> algorithm;
  try {
    // A warm start uses the prior the open carries: on recovery and on a
    // follower, the journaled snapshot, never a fresh (diverging) query.
    algorithm = tuner::make_algorithm(params.algorithm, params.prior);
  } catch (const std::out_of_range&) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "unknown algorithm: " + params.algorithm);
  }
  auto managed = std::make_shared<ManagedSession>(params, params.make_space(),
                                                  std::move(algorithm), token);
  // Idle-eviction bookkeeping; never feeds tuning results.
  managed->last_activity = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  if (store_ != nullptr && !params.benchmark.empty() && !params.arch.empty())
    managed->store_key = {params.benchmark, params.arch, space_fingerprint_of(params)};
  return managed;
}

void SessionManager::adopt_locked(const std::string& id,
                                  std::shared_ptr<ManagedSession> managed) {
  if (!managed->open.tenant.empty()) ++tenant_live_[managed->open.tenant];
  sessions_.emplace_back(id, std::move(managed));
  ++opened_;
  // Keep fresh ids clear of every registered "s<N>" (foreign id schemes
  // cannot collide with them).
  std::uint64_t numeric = 0;
  if (id.size() > 1 && id[0] == 's' &&
      std::from_chars(id.data() + 1, id.data() + id.size(), numeric).ec == std::errc{})
    next_id_ = std::max(next_id_, numeric + 1);
}

std::shared_ptr<SessionManager::ManagedSession> SessionManager::take_locked(
    const std::string& id) {
  const auto it = std::find_if(sessions_.begin(), sessions_.end(),
                               [&](const auto& entry) { return entry.first == id; });
  if (it == sessions_.end()) return nullptr;
  std::shared_ptr<ManagedSession> managed = std::move(it->second);
  sessions_.erase(it);
  note_removed_locked(*managed);
  return managed;
}

void SessionManager::replay(ManagedSession& managed) {
  std::unique_ptr<tuner::AskTellSession> search = managed.make_search();
  // Deterministic search must re-propose exactly the journaled
  // configurations; any divergence means the journal does not belong to
  // this binary/space and restoring it would corrupt the study.
  for (const WalTell& tell : managed.unreplayed) {
    const std::optional<tuner::Configuration> config = search->ask();
    if (!config || *config != tell.config) {
      throw std::runtime_error("replay diverged from journal at seq " +
                               std::to_string(tell.seq));
    }
    search->tell(tell.evaluation);
  }
  repro::MutexLock lock(mutex_);
  managed.search = std::move(search);
  std::vector<WalTell>().swap(managed.unreplayed);
  // The proposal a client may be answering left a previous incarnation (or
  // the deposed primary); none left this one yet.
  managed.orphan_proposal = true;
}

tuner::AskTellSession& SessionManager::materialize(const std::string& id,
                                                   ManagedSession& managed) {
  repro::MutexLock replay_lock(managed.replay_mutex);
  if (managed.search != nullptr) return *managed.search;
  {
    // A removal after this check cancels the search published below: its
    // cancel() waits for replay_mutex. (A failed replay removed it too.)
    repro::MutexLock lock(mutex_);
    if (std::none_of(sessions_.begin(), sessions_.end(),
                     [&](const auto& entry) { return entry.second.get() == &managed; }))
      throw ProtocolError(ErrorCode::kSessionClosed,
                          "session " + id + " was closed before its journal replayed");
  }
  const std::size_t tells = managed.unreplayed.size();
  try {
    replay(managed);
  } catch (const std::exception& error) {
    // Dropped the way recover() drops a diverged journal: counted as
    // failed, the journal left on disk.
    log_warn("session {}: cannot replay its journal: {}", id, error.what());
    {
      repro::MutexLock lock(mutex_);
      ++recovery_.sessions_failed;
      if (take_locked(id) != nullptr) ++closed_;
    }
    throw ProtocolError(ErrorCode::kInternal,
                        "session " + id + " cannot be restored: " + error.what());
  }
  log_info("session {} restored from its journal ({} tells replayed)", id, tells);
  repro::MutexLock lock(mutex_);
  recovery_.tells_replayed += tells;
  return *managed.search;
}

void SessionManager::store_append(const ManagedSession& managed,
                                  const tuner::Configuration& config,
                                  const tuner::Evaluation& evaluation) {
  if (!managed.store_key || config.empty()) return;
  const double value =
      evaluation.valid ? evaluation.value : std::numeric_limits<double>::quiet_NaN();
  try {
    (void)store_->append(*managed.store_key, config, value, evaluation.valid);
  } catch (const store::StoreError& error) {
    log_warn("results store: dropping record for {}/{}: {}",
             managed.store_key->benchmark, managed.store_key->arch, error.what());
    repro::MutexLock lock(mutex_);
    ++store_errors_;
  }
}

SessionManager::~SessionManager() { cancel_all(); }

RecoveryStats SessionManager::recover(bool follower) {
  RecoveryStats stats;
  if (limits_.state_dir.empty()) return stats;
  // Sorted scan: recovery order (and thus replay thread scheduling) is
  // deterministic across restarts.
  const std::vector<std::string> paths = list_session_wals(limits_.state_dir);
  for (const std::string& path : paths) {
    WalSession journal;
    try {
      journal = load_session_wal(path);
    } catch (const std::exception& error) {
      log_warn("recovery: dropping unrecoverable journal {}: {}", path, error.what());
      ++stats.sessions_failed;
      continue;
    }
    if (journal.torn_tail) ++stats.torn_tails;
    if (journal.closed) {
      // Crash landed between the close record and the unlink; finish the job.
      (void)::unlink(path.c_str());
      ++stats.closed_discarded;
      continue;
    }
    if (journal.evicted) {
      repro::MutexLock lock(mutex_);
      add_tombstone(journal.id);
      ++stats.evicted_tombstones;
      continue;
    }
    try {
      const std::shared_ptr<ManagedSession> managed =
          make_session(journal.open, journal.token);
      managed->applied_seq = journal.tells.empty() ? 0 : journal.tells.back().seq;
      managed->unreplayed = journal.tells;
      if (!follower) {
        replay(*managed);
        stats.tells_replayed += journal.tells.size();
      }
      // Re-append to the results store: dedup makes this idempotent when
      // the store already has the record, and it heals a store whose own
      // log lost a tail the session WAL retained.
      for (const WalTell& tell : journal.tells)
        store_append(*managed, tell.config, tell.evaluation);
      managed->wal = SessionWal::reattach(path, journal.valid_bytes);

      repro::MutexLock lock(mutex_);
      if (managed->wal == nullptr) ++wal_errors_;
      adopt_locked(journal.id, managed);
      asks_total_ += journal.tells.size();
      tells_total_ += journal.tells.size();
      for (const WalTell& tell : journal.tells) tallies_.count(tell.evaluation.status);
      ++stats.sessions_recovered;
      log_info("recovery: session {} {} ({} tells)", journal.id,
               follower ? "indexed" : "restored", journal.tells.size());
    } catch (const std::exception& error) {
      log_warn("recovery: cannot replay journal {}: {}", path, error.what());
      ++stats.sessions_failed;
    }
  }
  repro::MutexLock lock(mutex_);
  recovery_ = stats;
  return stats;
}

std::string SessionManager::open(const OpenParams& params, const std::string& token) {
  {
    repro::MutexLock lock(mutex_);
    if (!token.empty()) {
      for (auto& [id, managed] : sessions_) {
        if (managed->token == token) {
          // Idempotent re-open: the first response was lost, not the session.
          // Idle-eviction bookkeeping; never feeds tuning results.
          managed->last_activity = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
          return id;
        }
      }
    }
  }
  // Admission: reserves one slot (throwing the typed retry_later when the
  // caller must back off). The reservation is either consumed by the
  // registration below or returned by the guard on every other exit.
  admit(params.tenant);
  struct ReservationGuard {
    SessionManager* manager;
    const std::string* tenant;
    bool committed = false;
    ~ReservationGuard() {
      if (!committed) manager->release_admission(*tenant);
    }
  } reservation{this, &params.tenant};
  // Warm start: snapshot the tenant's prior history EXACTLY ONCE, here, at
  // the client-facing open. The snapshot rides `effective` into the WAL
  // open record and the ship_open frame, so recovery and the standby replay
  // the same prior verbatim instead of re-deriving it from a store that has
  // since moved on (which would diverge the deterministic replay).
  OpenParams effective = params;
  if (store_ != nullptr && effective.warm_start && effective.prior == nullptr &&
      !effective.benchmark.empty() && !effective.arch.empty()) {
    const store::StoreKey key{effective.benchmark, effective.arch,
                              space_fingerprint_of(effective)};
    const std::vector<store::StoreRecord> rows =
        store_->query(key, limits_.warm_start_max_rows);
    if (!rows.empty()) {
      tuner::PriorHistory prior;
      prior.reserve(rows.size());
      for (const store::StoreRecord& row : rows) {
        prior.push_back(tuner::PriorObservation{row.config, row.value, row.valid});
      }
      effective.prior = std::make_shared<const tuner::PriorHistory>(std::move(prior));
    }
  }
  // Construct outside the lock: registry lookup and space building can
  // throw, and the search starts a thread.
  const std::shared_ptr<ManagedSession> managed = make_session(effective, token);
  managed->search = managed->make_search();

  std::string id;
  {
    repro::MutexLock lock(mutex_);
    if (!token.empty()) {
      for (auto& [existing_id, existing] : sessions_) {
        if (existing->token == token) {
          // Lost the race against a concurrent open with the same token.
          managed->search->cancel();
          return existing_id;
        }
      }
    }
    // The admit() reservation guarantees a slot; convert it into the live
    // registration.
    consume_reservation_locked(params.tenant);
    reservation.committed = true;
    // push_back+append sidesteps a GCC 12 -Wrestrict false positive
    // (PR105329) on assigning the concatenation temporary.
    id.push_back('s');
    id += std::to_string(next_id_);
    adopt_locked(id, managed);
  }
  // Journal the open before the caller can observe the id: once the client
  // sees this session exist, a crash must not forget it. `effective`
  // carries the prior snapshot, so recovery warm-starts identically.
  if (!limits_.state_dir.empty()) {
    managed->wal =
        SessionWal::create(wal_path(limits_.state_dir, id), id, token, effective);
    if (managed->wal == nullptr) {
      repro::MutexLock lock(mutex_);
      ++wal_errors_;
    }
  }
  // Replicate the open to the hot standby before the id is observable, for
  // the same reason the journal is written first. A ship failure degrades
  // the shard (resync repairs it later), it never fails the open.
  if (shipper_ != nullptr) (void)shipper_->ship_open(id, token, effective);
  log_debug("session {} opened: {} budget={} seed={}{}", id, effective.algorithm,
            effective.budget, effective.seed,
            effective.prior != nullptr && !effective.prior->empty()
                ? " (warm start: " + std::to_string(effective.prior->size()) +
                      " prior rows)"
                : "");
  return id;
}

void SessionManager::add_tombstone(const std::string& id) {
  if (std::find(tombstones_.begin(), tombstones_.end(), id) != tombstones_.end())
    return;
  if (tombstones_.size() >= kTombstoneCap)
    tombstones_.erase(tombstones_.begin());
  tombstones_.push_back(id);
}

void SessionManager::throw_missing(const std::string& id) {
  if (std::find(tombstones_.begin(), tombstones_.end(), id) != tombstones_.end()) {
    throw ProtocolError(ErrorCode::kSessionEvicted,
                        "session " + id + " was evicted (idle timeout)");
  }
  throw ProtocolError(ErrorCode::kUnknownSession, "unknown session: " + id);
}

std::shared_ptr<SessionManager::ManagedSession> SessionManager::find_and_touch(
    const std::string& id) {
  repro::MutexLock lock(mutex_);
  for (auto& [key, session] : sessions_) {
    if (key == id) {
      // Idle-eviction bookkeeping; never feeds tuning results.
      session->last_activity = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
      return session;
    }
  }
  throw_missing(id);
  return nullptr;  // unreachable; throw_missing always throws
}

std::optional<tuner::Configuration> SessionManager::ask(
    const std::string& id,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    bool resume) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  tuner::AskTellSession& search = materialize(id, *managed);
  if (resume) {
    // Reconnect path: if the proposal the client lost is still outstanding,
    // hand it out again instead of tripping kAskPending. Falls through to a
    // fresh ask when nothing is outstanding (the response the client lost
    // was a tell-ack, not an ask).
    if (const auto config = search.outstanding_config()) return config;
  }
  try {
    // Blocks; manager mutex NOT held.
    auto config = deadline ? search.ask_until(*deadline) : search.ask();
    repro::MutexLock lock(mutex_);
    ++asks_total_;
    managed->orphan_proposal = false;
    return config;
  } catch (const tuner::AskPendingError& error) {
    throw ProtocolError(ErrorCode::kAskPending, error.what());
  } catch (const tuner::DeadlineExceeded& error) {
    throw ProtocolError(ErrorCode::kDeadlineExceeded, error.what());
  } catch (const tuner::SessionCancelled&) {
    throw ProtocolError(ErrorCode::kSessionClosed,
                        "session " + id + " was cancelled while ask was blocked");
  }
}

SessionManager::TellAck SessionManager::tell(const std::string& id,
                                             const tuner::Evaluation& evaluation,
                                             std::uint64_t seq) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  tuner::AskTellSession& search = materialize(id, *managed);
  // In-flight tell quota: an executing tell pins a connection thread through
  // the WAL fsync and the standby's ack; bound what one tenant may pin.
  // Charged before the duplicate check (a retry storm is load too).
  struct InflightCredit {
    SessionManager* manager = nullptr;
    const std::string* tenant = nullptr;
    ~InflightCredit() {
      if (manager != nullptr) manager->end_inflight_tell(*tenant);
    }
  } credit;
  if (begin_inflight_tell(managed->open.tenant)) {
    credit.manager = this;
    credit.tenant = &managed->open.tenant;
  }
  bool orphan = false;
  if (seq != 0) {
    repro::MutexLock lock(mutex_);
    orphan = managed->orphan_proposal;
    if (seq <= managed->applied_seq) {
      // Retried frame whose first delivery was applied but whose ack was
      // lost. Acknowledge without re-applying.
      ++duplicate_tells_;
      const std::size_t told = search.tells();
      const std::size_t budget = search.budget();
      return TellAck{told >= budget ? 0 : budget - told, true};
    }
    if (seq != managed->applied_seq + 1) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "tell seq gap: got " + std::to_string(seq) +
                              ", expected " +
                              std::to_string(managed->applied_seq + 1));
    }
  }
  // Snapshot the proposal being answered before tell() clears it — it is
  // journaled alongside the measurement as a replay integrity check.
  std::optional<tuner::Configuration> config = search.outstanding_config();
  try {
    search.tell(evaluation);
  } catch (const tuner::TellMismatchError& error) {
    if (seq == 0 || !orphan)
      throw ProtocolError(ErrorCode::kNoAskOutstanding, error.what());
    // Failover race: the proposal this seq answers was handed out by a
    // previous incarnation that died before the tell arrived (a promoted
    // standby's followed sessions hold no outstanding ask; a recovered
    // primary's replayed sessions don't either). The orphan flag proved
    // no ask left THIS incarnation, the seq gate proved this is the next
    // unapplied measurement, and the deterministic search re-proposes
    // exactly the configuration the client evaluated — ask here and apply
    // the retried tell to it.
    try {
      config = search.ask();
      if (!config)
        throw ProtocolError(ErrorCode::kNoAskOutstanding,
                            "retried tell " + std::to_string(seq) +
                                " arrived after the search finished");
      search.tell(evaluation);
    } catch (const tuner::AskPendingError& inner) {
      throw ProtocolError(ErrorCode::kAskPending, inner.what());
    } catch (const tuner::TellMismatchError& inner) {
      throw ProtocolError(ErrorCode::kNoAskOutstanding, inner.what());
    } catch (const tuner::SessionCancelled&) {
      throw ProtocolError(ErrorCode::kSessionClosed,
                          "session " + id + " was cancelled while the retried "
                          "tell re-asked");
    }
  }
  std::uint64_t applied = 0;
  {
    repro::MutexLock lock(mutex_);
    applied = managed->applied_seq = seq != 0 ? seq : managed->applied_seq + 1;
    managed->orphan_proposal = false;
    ++tells_total_;
    tallies_.count(evaluation.status);
  }
  // Durability barrier: the ack frame must not leave before the journal
  // record is on disk, or a crash loses an acknowledged measurement.
  if (managed->wal != nullptr &&
      !managed->wal->append_tell(applied, config.value_or(tuner::Configuration{}),
                                 evaluation)) {
    repro::MutexLock lock(mutex_);
    ++wal_errors_;
  }
  // Results-store barrier: the tenant's history record is fsync'd before
  // the ack leaves too, so an acknowledged tell can warm-start future
  // sessions even across a crash.
  if (config.has_value()) store_append(*managed, *config, evaluation);
  // Replication barrier: while the ship link is up, the ack also waits for
  // the standby's fsync'd apply — an acknowledged tell then survives a
  // primary SIGKILL with zero client-visible loss. On ship failure the
  // shard keeps serving (degraded) and resync converges the standby later.
  if (shipper_ != nullptr) {
    (void)shipper_->ship_tell(id, applied, config.value_or(tuner::Configuration{}),
                              evaluation);
  }
  const std::size_t told = search.tells();
  const std::size_t budget = search.budget();
  return TellAck{told >= budget ? 0 : budget - told, false};
}

SessionManager::ResultPayload SessionManager::result(
    const std::string& id,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  tuner::AskTellSession& search = materialize(id, *managed);
  ResultPayload payload;
  try {
    // Blocks until finished; manager mutex NOT held.
    payload.result = deadline ? search.result_until(*deadline) : search.result();
  } catch (const tuner::DeadlineExceeded& error) {
    throw ProtocolError(ErrorCode::kDeadlineExceeded, error.what());
  } catch (const tuner::SessionCancelled&) {
    throw ProtocolError(ErrorCode::kSessionClosed,
                        "session " + id + " was cancelled before finishing");
  } catch (const std::exception& error) {
    throw ProtocolError(ErrorCode::kInternal,
                        std::string("search thread failed: ") + error.what());
  }
  payload.counters = search.counters();
  return payload;
}

void SessionManager::close(const std::string& id) {
  std::shared_ptr<ManagedSession> managed;
  {
    repro::MutexLock lock(mutex_);
    managed = take_locked(id);
    if (managed == nullptr) throw_missing(id);
    ++closed_;
  }
  // Terminal record then unlink: if the crash lands between the two,
  // recovery sees the close record and finishes the unlink.
  if (managed->wal != nullptr) {
    const std::string path = managed->wal->path();
    if (!managed->wal->append_close()) {
      repro::MutexLock lock(mutex_);
      ++wal_errors_;
    }
    managed->wal.reset();
    (void)::unlink(path.c_str());
  }
  if (shipper_ != nullptr) (void)shipper_->ship_close(id);
  // Cancel + destroy outside the lock: the session destructor joins the
  // search thread, which may need a moment to observe the cancel.
  managed->cancel();
  log_debug("session {} closed", id);
}

std::size_t SessionManager::evict_idle() {
  if (limits_.idle_timeout.count() <= 0) return 0;
  // Idle-eviction bookkeeping; never feeds tuning results.
  const auto now = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  Registry victims;
  {
    repro::MutexLock lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - it->second->last_activity);
      if (idle > limits_.idle_timeout) {
        add_tombstone(it->first);
        credit_tenant_locked(it->second->open.tenant);
        victims.emplace_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    evicted_ += victims.size();
    // One drain after the sweep: freed slots go to queued opens only once
    // sessions_ reflects every removal.
    if (!victims.empty()) drain_admission_locked();
  }
  for (auto& [id, managed] : victims) {
    retire_evicted(id, *managed);
    log_info("session {} evicted after {}ms idle", id,
             limits_.idle_timeout.count());
  }
  return victims.size();
}

void SessionManager::retire_evicted(const std::string& id, ManagedSession& managed) {
  // Persist the eviction: the journal stays behind as a tombstone so a
  // restarted daemon reports kSessionEvicted instead of resurrecting a
  // session the policy already reaped.
  if (managed.wal != nullptr && !managed.wal->append_evicted()) {
    repro::MutexLock lock(mutex_);
    ++wal_errors_;
  }
  if (shipper_ != nullptr) (void)shipper_->ship_evict(id);
  managed.cancel();
}

void SessionManager::follow_open(const std::string& id, const OpenParams& params,
                                 const std::string& token) {
  const std::shared_ptr<ManagedSession> managed = make_session(params, token);
  // Held until the journal exists: a follow_tell of this session waits.
  repro::MutexLock replay_lock(managed->replay_mutex);
  {
    repro::MutexLock lock(mutex_);
    for (const auto& entry : sessions_) {
      if (entry.first == id) return;  // duplicate ship_open: already followed
    }
    // Followed opens bypass tenant quotas (the primary already admitted
    // them; refusing here would diverge the standby) but respect the global
    // cap, counting client opens' outstanding reservations.
    if (sessions_.size() + reserved_ >= limits_.max_sessions) {
      throw ProtocolError(ErrorCode::kRetryLater,
                          "session limit reached (" +
                              std::to_string(limits_.max_sessions) + ")",
                          limits_.retry_after_ms);
    }
    adopt_locked(id, managed);
  }
  // The journal a restarted follower indexes and a first touch replays.
  if (!limits_.state_dir.empty()) {
    managed->wal =
        SessionWal::create(wal_path(limits_.state_dir, id), id, token, params);
    if (managed->wal == nullptr) {
      repro::MutexLock lock(mutex_);
      ++wal_errors_;
    }
  }
  log_debug("followed session {} opened: {} budget={} seed={}", id,
            params.algorithm, params.budget, params.seed);
}

SessionManager::TellAck SessionManager::follow_tell(
    const std::string& id, std::uint64_t seq, const tuner::Configuration& config,
    const tuner::Evaluation& evaluation) {
  const std::shared_ptr<ManagedSession> managed = find_and_touch(id);
  // Serialized with a first-touch replay of this session: a record journaled
  // after its search was built would never reach the search.
  repro::MutexLock replay_lock(managed->replay_mutex);
  if (managed->search != nullptr) {
    throw ProtocolError(ErrorCode::kWrongRole,
                        "session " + id + " is served by this daemon since its "
                        "promotion; ship_tell belongs on a standby");
  }
  const auto ack = [&](bool duplicate) {
    const std::size_t told = managed->unreplayed.size(), budget = managed->open.budget;
    return TellAck{told >= budget ? 0 : budget - told, duplicate};
  };
  std::uint64_t applied = 0;
  {
    repro::MutexLock lock(mutex_);
    if (seq != 0 && seq <= managed->applied_seq) {
      // Resync re-ships whole journals; records at or below the watermark
      // were journaled by an earlier delivery.
      ++duplicate_tells_;
      return ack(true);
    }
    if (seq != 0 && seq != managed->applied_seq + 1) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "ship_tell seq gap: got " + std::to_string(seq) +
                              ", expected " +
                              std::to_string(managed->applied_seq + 1));
    }
    applied = seq != 0 ? seq : managed->applied_seq + 1;
  }
  // The follower runs no search, so the echo check waits for the replay at
  // first touch; a config the space cannot hold is refused now.
  if (!managed->space.in_range(config)) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "ship_tell seq " + std::to_string(applied) +
                            ": config outside the session's space");
  }
  // Same durability barrier as the primary: the ship ack must not leave
  // before this record is on the follower's disk.
  if (managed->wal != nullptr && !managed->wal->append_tell(applied, config, evaluation)) {
    repro::MutexLock lock(mutex_);
    ++wal_errors_;
  }
  // The standby's own results store gets the record too: a promoted shard
  // must warm-start future tenants exactly like the primary it replaces.
  store_append(*managed, config, evaluation);
  repro::MutexLock lock(mutex_);
  managed->applied_seq = applied;
  managed->unreplayed.push_back(WalTell{applied, config, evaluation});
  ++tells_total_;
  tallies_.count(evaluation.status);
  return ack(false);
}

void SessionManager::follow_close(const std::string& id) {
  try {
    close(id);
  } catch (const ProtocolError&) {
    // Duplicate ship_close (or close of a session an earlier resync never
    // created): the end state — no such session — already holds.
  }
}

void SessionManager::follow_evict(const std::string& id) {
  std::shared_ptr<ManagedSession> managed;
  {
    repro::MutexLock lock(mutex_);
    add_tombstone(id);
    managed = take_locked(id);
    if (managed == nullptr) return;  // duplicate delivery
    ++evicted_;
  }
  retire_evicted(id, *managed);
  log_debug("followed session {} evicted (shipped record)", id);
}

void SessionManager::connect_shipper() {
  if (shipper_ != nullptr) (void)shipper_->connect_now();
}

void SessionManager::ship_store_import(
    const std::vector<store::TenantSnapshot>& tenants) {
  if (shipper_ != nullptr) (void)shipper_->ship_store_import(tenants);
}

// --- tenant-fair admission ---------------------------------------------------

std::uint64_t SessionManager::retry_hint_locked() const {
  // Depth-scaled backoff: every queued open ahead of a shed caller is work
  // the daemon must absorb before a retry can succeed. Capped at 16x so the
  // hint never tells a client to disappear for minutes.
  const std::uint64_t factor =
      1 + std::min<std::uint64_t>(admission_depth_, 15);
  return limits_.retry_after_ms * factor;
}

void SessionManager::admit(const std::string& tenant) {
  const TenantQuotas& quotas = limits_.quotas;
  repro::MutexLock lock(mutex_);
  if (!tenant.empty() && quotas.max_sessions_per_tenant != 0) {
    const auto live_it = tenant_live_.find(tenant);
    const auto reserved_it = reserved_by_tenant_.find(tenant);
    const std::size_t held =
        (live_it != tenant_live_.end() ? live_it->second : 0) +
        (reserved_it != reserved_by_tenant_.end() ? reserved_it->second : 0);
    if (held >= quotas.max_sessions_per_tenant) {
      ++shed_over_quota_;
      throw ProtocolError(ErrorCode::kRetryLater,
                          "tenant " + tenant + " session quota reached (" +
                              std::to_string(quotas.max_sessions_per_tenant) +
                              ")",
                          retry_hint_locked());
    }
  }
  if (sessions_.size() + reserved_ < limits_.max_sessions) {
    ++reserved_;
    if (!tenant.empty()) ++reserved_by_tenant_[tenant];
    return;
  }
  // Global cap reached. The admission queue is reserved for named, in-quota
  // tenants: anonymous opens (and everyone when queueing is off) shed
  // immediately with the depth-scaled hint. In-flight sessions are never
  // shed — overload only ever refuses *new* work.
  const bool can_queue = !tenant.empty() && quotas.admission_queue_cap != 0 &&
                         quotas.admission_wait.count() > 0;
  if (!can_queue) {
    if (tenant.empty() && quotas.enabled()) ++shed_anonymous_;
    throw ProtocolError(ErrorCode::kRetryLater,
                        "session limit reached (" +
                            std::to_string(limits_.max_sessions) + ")",
                        retry_hint_locked());
  }
  if (admission_depth_ >= quotas.admission_queue_cap) {
    ++shed_queue_full_;
    throw ProtocolError(ErrorCode::kRetryLater,
                        "admission queue full (" +
                            std::to_string(quotas.admission_queue_cap) + ")",
                        retry_hint_locked());
  }
  auto waiter = std::make_shared<AdmissionWaiter>();
  waiter->tenant = tenant;
  admission_queues_[tenant].push_back(waiter);
  ++admission_depth_;
  ++admission_queued_total_;
  // Park until the drain hands this waiter a freed slot (or the wait
  // budget runs out). The condvar releases mutex_ while parked.
  (void)admission_cv_.wait_for(lock.native(), quotas.admission_wait, [&] {
    return waiter->granted || waiter->failed;
  });
  if (waiter->granted) return;  // the drain already reserved our slot
  if (waiter->failed) {
    // Flushed by shutdown/demote; the queue entry is already gone.
    throw ProtocolError(ErrorCode::kRetryLater, "admission queue flushed",
                        retry_hint_locked());
  }
  // Timed out while still queued: withdraw.
  const auto it = admission_queues_.find(tenant);
  if (it != admission_queues_.end()) {
    auto& queue = it->second;
    queue.erase(std::remove(queue.begin(), queue.end(), waiter), queue.end());
    if (queue.empty()) admission_queues_.erase(it);
  }
  --admission_depth_;
  ++admission_timeouts_;
  throw ProtocolError(ErrorCode::kRetryLater,
                      "admission queue wait exceeded (" +
                          std::to_string(quotas.admission_wait.count()) + "ms)",
                      retry_hint_locked());
}

void SessionManager::release_admission(const std::string& tenant) {
  repro::MutexLock lock(mutex_);
  consume_reservation_locked(tenant);
  drain_admission_locked();  // the returned slot may admit a queued open
}

void SessionManager::consume_reservation_locked(const std::string& tenant) {
  if (reserved_ != 0) --reserved_;
  if (!tenant.empty()) {
    const auto it = reserved_by_tenant_.find(tenant);
    if (it != reserved_by_tenant_.end() && --(it->second) == 0)
      reserved_by_tenant_.erase(it);
  }
}

void SessionManager::credit_tenant_locked(const std::string& tenant) {
  if (tenant.empty()) return;
  const auto it = tenant_live_.find(tenant);
  if (it != tenant_live_.end() && --(it->second) == 0) tenant_live_.erase(it);
}

void SessionManager::note_removed_locked(const ManagedSession& managed) {
  credit_tenant_locked(managed.open.tenant);
  drain_admission_locked();
}

void SessionManager::drain_admission_locked() {
  bool granted_any = false;
  while (admission_depth_ != 0 &&
         sessions_.size() + reserved_ < limits_.max_sessions) {
    // Deficit round robin, quantum one: the tenant after the cursor gets
    // the freed slot, so one tenant's burst cannot starve the rest.
    auto it = admission_queues_.upper_bound(drr_cursor_);
    if (it == admission_queues_.end()) it = admission_queues_.begin();
    if (it == admission_queues_.end()) break;  // depth desynced; bail safe
    drr_cursor_ = it->first;
    auto& queue = it->second;
    std::shared_ptr<AdmissionWaiter> waiter;
    while (!queue.empty()) {
      waiter = std::move(queue.front());
      queue.pop_front();
      --admission_depth_;
      if (!waiter->failed) break;
      waiter.reset();
    }
    if (queue.empty()) admission_queues_.erase(it);
    if (waiter == nullptr) continue;
    waiter->granted = true;
    ++reserved_;
    if (!waiter->tenant.empty()) ++reserved_by_tenant_[waiter->tenant];
    ++admission_granted_;
    granted_any = true;
  }
  if (granted_any) admission_cv_.notify_all();
}

void SessionManager::flush_admission_locked() {
  if (admission_queues_.empty()) return;
  for (auto& [tenant, queue] : admission_queues_) {
    for (const std::shared_ptr<AdmissionWaiter>& waiter : queue)
      waiter->failed = true;
  }
  admission_queues_.clear();
  admission_depth_ = 0;
  admission_cv_.notify_all();
}

bool SessionManager::begin_inflight_tell(const std::string& tenant) {
  if (tenant.empty() || limits_.quotas.max_inflight_tells_per_tenant == 0)
    return false;
  repro::MutexLock lock(mutex_);
  std::size_t& inflight = tenant_inflight_[tenant];
  if (inflight >= limits_.quotas.max_inflight_tells_per_tenant) {
    ++tell_pushbacks_;
    throw ProtocolError(ErrorCode::kRetryLater,
                        "tenant " + tenant + " tell quota reached (" +
                            std::to_string(
                                limits_.quotas.max_inflight_tells_per_tenant) +
                            ")",
                        limits_.retry_after_ms);
  }
  ++inflight;
  return true;
}

void SessionManager::end_inflight_tell(const std::string& tenant) {
  repro::MutexLock lock(mutex_);
  const auto it = tenant_inflight_.find(tenant);
  if (it != tenant_inflight_.end() && --(it->second) == 0)
    tenant_inflight_.erase(it);
}

// --- self-healing ------------------------------------------------------------

bool SessionManager::reseed(const std::string& host, std::uint16_t port) {
  if (shipper_ == nullptr || limits_.state_dir.empty()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "reseed requires durability (--state-dir): local "
                        "journals are the resync source");
  }
  if (host.empty() || port == 0) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "reseed needs a follower host and port");
  }
  shipper_->retarget(host, port);
  const bool hot = shipper_->connect_now();
  log_info("reseed: follower {}:{} {}", host, port,
           hot ? "is hot" : "still catching up (redial pending)");
  return hot;
}

std::size_t SessionManager::demote_reset() {
  // Stop replicating first: a deposed primary must never ship its divergent
  // tail anywhere (also clears the fence so a later reseed can retarget).
  if (shipper_ != nullptr) shipper_->retarget("", 0);
  const auto victims = take_all(/*forget_tombstones=*/true);
  for (auto& [id, managed] : victims) {
    // These journals are the divergent tail the new primary never
    // acknowledged. Keeping them would resurrect zombie sessions on the
    // next restart; the rejoined standby is rebuilt from the new primary's
    // history via resync instead.
    if (managed->wal != nullptr) {
      const std::string path = managed->wal->path();
      managed->wal.reset();
      (void)::unlink(path.c_str());
    }
    managed->cancel();
  }
  // Sweep journals no live session owned (eviction tombstones, journals
  // recovery could not replay): the rejoining standby starts clean.
  if (!limits_.state_dir.empty()) {
    try {
      for (const std::string& path : list_session_wals(limits_.state_dir)) {
        (void)::unlink(path.c_str());
      }
    } catch (const std::exception& error) {
      log_warn("demote: cannot sweep {}: {}", limits_.state_dir, error.what());
    }
  }
  std::size_t dropped_rows = 0;
  if (store_ != nullptr) dropped_rows = store_->reset();
  log_info("demote: dropped {} session(s) and {} store row(s); ready to "
           "re-seed as a standby",
           victims.size(), dropped_rows);
  return victims.size();
}

SessionManager::Registry SessionManager::take_all(bool forget_tombstones) {
  Registry victims;
  repro::MutexLock lock(mutex_);
  victims.swap(sessions_);
  closed_ += victims.size();
  tenant_live_.clear();
  if (forget_tombstones) tombstones_.clear();
  // Queued opens wake into retry_later: there is no slot coming.
  flush_admission_locked();
  return victims;
}

void SessionManager::cancel_all() {
  // No terminal journal records here — an abandoned live journal is exactly
  // what recover() resurrects, so shutdown-with-live-sessions behaves like
  // a crash (by design: the daemon stopping is not the client giving up).
  // Destruction (thread joins) happens as the victims go out of scope.
  for (auto& [id, managed] : take_all(/*forget_tombstones=*/false)) managed->cancel();
}

std::size_t SessionManager::live() const {
  repro::MutexLock lock(mutex_);
  return sessions_.size();
}

StatusReport SessionManager::status() const {
  StatusReport report;
  repro::MutexLock lock(mutex_);
  report.live_sessions = sessions_.size();
  report.opened = opened_;
  report.closed = closed_;
  report.evicted = evicted_;
  report.asks = asks_total_;
  report.tells = tells_total_;
  report.duplicate_tells = duplicate_tells_;
  report.wal_errors = wal_errors_;
  report.store_errors = store_errors_;
  report.wal_enabled = !limits_.state_dir.empty();
  report.store_enabled = store_ != nullptr;
  report.recovery = recovery_;
  report.tallies = tallies_;
  if (shipper_ != nullptr) {
    report.ship_enabled = shipper_->enabled();
    report.ship_connected = shipper_->connected();
    report.ship_fenced = shipper_->fenced();
    report.ship_state = shipper_->state();
    const std::pair<std::string, std::uint16_t> target = shipper_->target();
    if (target.second != 0)
      report.ship_target = target.first + ":" + std::to_string(target.second);
    report.ship = shipper_->counters();
  }
  report.quotas.enabled = limits_.quotas.enabled();
  report.quotas.queue_depth = admission_depth_;
  report.quotas.queued = admission_queued_total_;
  report.quotas.granted = admission_granted_;
  report.quotas.timeouts = admission_timeouts_;
  report.quotas.shed_anonymous = shed_anonymous_;
  report.quotas.shed_over_quota = shed_over_quota_;
  report.quotas.shed_queue_full = shed_queue_full_;
  report.quotas.tell_pushbacks = tell_pushbacks_;
  {
    // Merge live / in-flight / queued views into one sorted row per tenant.
    std::map<std::string, StatusReport::TenantStatus> tenants;
    for (const auto& [tenant, count] : tenant_live_) {  // NOLINT(reprolint-unordered-iteration)
      tenants[tenant].sessions = count;
    }
    for (const auto& [tenant, count] : tenant_inflight_) {  // NOLINT(reprolint-unordered-iteration)
      tenants[tenant].inflight_tells = count;
    }
    for (const auto& [tenant, queue] : admission_queues_) {
      tenants[tenant].queued = queue.size();
    }
    report.quotas.tenants.reserve(tenants.size());
    for (auto& [tenant, row] : tenants) {
      row.tenant = tenant;
      report.quotas.tenants.push_back(std::move(row));
    }
  }
  for (const auto& [id, managed] : sessions_) {
    if (managed->search != nullptr && managed->search->finished()) ++report.finished;
  }
  return report;
}

std::vector<SessionInfo> SessionManager::sessions() const {
  // Status-endpoint idle ages; never feed tuning results.
  const auto now = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  std::vector<SessionInfo> infos;
  repro::MutexLock lock(mutex_);
  infos.reserve(sessions_.size());
  for (const auto& [id, managed] : sessions_) {
    SessionInfo info;
    info.id = id;
    info.algorithm = managed->algorithm_name;
    info.budget = managed->open.budget;
    if (managed->search != nullptr) {
      info.asks = managed->search->asks();
      info.tells = managed->search->tells();
      info.finished = managed->search->finished();
    } else {
      // No search yet: the journal's view of a followed session.
      info.asks = info.tells = managed->unreplayed.size();
    }
    info.idle_ms = static_cast<std::size_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - managed->last_activity)
            .count());
    infos.push_back(std::move(info));
  }
  return infos;
}

}  // namespace repro::service
