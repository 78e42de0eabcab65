#pragma once
// Concurrent registry of ask/tell tuning sessions for the `tuned` daemon.
//
// Each open() materializes the requested search space, constructs the
// algorithm from the registry, and starts an AskTellSession (one dedicated
// search thread, parked in the proxy objective except while computing the
// next proposal). The manager serializes bookkeeping under one mutex but
// never holds it across a blocking session call — ask() can park for as
// long as a BO-GP refit takes, and close()/evict_idle() must stay
// responsive meanwhile.
//
// Lifecycle: open -> (ask -> tell)* -> result -> close. Sessions idle
// longer than the configured timeout are evicted (cancelled + destroyed);
// an op blocked on an evicted session surfaces ErrorCode::kSessionClosed,
// and later ops on its id surface kSessionEvicted (distinguishable from a
// never-existed kUnknownSession via a bounded tombstone list).
//
// Durability (SessionLimits::state_dir non-empty): every session journals
// its open parameters and each applied tell to a per-session fsync'd WAL
// (service/session_wal.hpp) *before* the acknowledging response leaves the
// daemon. replay() rebuilds a session through a fresh AskTellSession —
// deterministic search means replay reconstructs the exact pre-crash state,
// RNG stream included. Tell idempotency (per-session monotonic seq) makes
// the recovery window safe for retrying clients. A hot standby only
// journals (follow_*); a promoted session replays at its first touch.
//
// Admission control: opening past max_sessions answers the retryable
// kRetryLater (with SessionLimits::retry_after_ms as the backoff hint)
// instead of a hard failure. With TenantQuotas configured, admission is
// additionally *tenant-fair*: each open carries a tenant identity (from
// the connection's hello; "" = anonymous), per-tenant session and
// in-flight-tell quotas bound any one tenant's footprint, and named
// in-quota opens that hit the global cap wait in a bounded admission
// queue drained deficit-round-robin (quantum one session) as slots free.
// Anonymous and over-quota opens are shed immediately — never queued —
// and in-flight sessions are never shed; pushback is always the typed
// retry_later whose retry_after_ms hint scales with queue depth.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "service/protocol.hpp"
#include "service/session_wal.hpp"
#include "service/wal_ship.hpp"
#include "store/results_store.hpp"
#include "tuner/ask_tell.hpp"

namespace repro::service {

/// Per-tenant fairness quotas. All zero (the default) disables the
/// machinery entirely — admission behaves exactly like the single global
/// cap. Tenant identity is OpenParams::tenant ("" = anonymous).
struct TenantQuotas {
  /// Live + queued-for-admission sessions one named tenant may hold.
  /// 0 = unlimited.
  std::size_t max_sessions_per_tenant = 0;
  /// Concurrent tell() calls one named tenant may have in flight (each
  /// blocks a connection thread through WAL fsync + ship ack). 0 =
  /// unlimited.
  std::size_t max_inflight_tells_per_tenant = 0;
  /// Bounded admission queue for named, in-quota opens arriving at the
  /// global session cap. 0 disables queueing (immediate retry_later).
  std::size_t admission_queue_cap = 0;
  /// Longest a queued open waits for a slot before retry_later.
  std::chrono::milliseconds admission_wait{0};

  [[nodiscard]] bool enabled() const noexcept {
    return max_sessions_per_tenant != 0 || max_inflight_tells_per_tenant != 0 ||
           admission_queue_cap != 0;
  }
};

struct SessionLimits {
  std::size_t max_sessions = 256;
  std::chrono::milliseconds idle_timeout{300000};  ///< 5 min; <=0 disables
  /// Session WAL directory; empty disables durability.
  std::string state_dir;
  /// Backoff hint carried by kRetryLater admission pushback.
  std::uint64_t retry_after_ms = 250;
  /// Cap on prior rows snapshotted into a warm-started open. Bounds both
  /// the seeding cost and the open record's frame size (512 rows ≈ 30 KiB,
  /// far under kMaxFrameBytes).
  std::size_t warm_start_max_rows = 512;
  /// Hot-standby replication target (ship.port == 0 disables). Requires a
  /// state_dir: the local journals are the resync source after an outage.
  /// ship.state_dir is filled from state_dir by the manager.
  ShipConfig ship;
  /// Per-tenant fairness quotas (all zero = off).
  TenantQuotas quotas;
};

/// What recover() found in the state dir at startup, plus first touches.
struct RecoveryStats {
  std::size_t sessions_recovered = 0;  ///< live journals replayed or indexed
  std::size_t tells_replayed = 0;      ///< tells replayed through a search
  std::size_t sessions_failed = 0;  ///< unreadable/diverged journals (lost)
  std::size_t torn_tails = 0;       ///< journals whose final record was dropped
  std::size_t closed_discarded = 0;  ///< clean close record, journal deleted
  std::size_t evicted_tombstones = 0;  ///< eviction record, id tombstoned
};

/// Aggregate counters for the `status` endpoint. Tallies classify every
/// tell() by its EvalStatus — the service-level view of the PR-1 failure
/// accounting (per-session Evaluator counters additionally ride on each
/// `result` response).
struct StatusReport {
  std::size_t live_sessions = 0;
  std::size_t opened = 0;
  std::size_t closed = 0;
  std::size_t evicted = 0;
  std::size_t finished = 0;  ///< live sessions whose search already terminated
  std::size_t asks = 0;
  std::size_t tells = 0;
  std::size_t duplicate_tells = 0;  ///< idempotent seq replays acknowledged
  std::size_t wal_errors = 0;       ///< journal appends that failed (IO)
  std::size_t store_errors = 0;     ///< results-store appends that failed
  bool wal_enabled = false;
  bool store_enabled = false;       ///< a results store is attached
  RecoveryStats recovery;  ///< from the last recover() call
  tuner::FailureCounters tallies;
  /// Replication state (meaningful only when ship_enabled).
  bool ship_enabled = false;
  bool ship_connected = false;  ///< false while enabled = shard is degraded
  bool ship_fenced = false;     ///< follower was promoted; this shard is stale
  ShipState ship_state = ShipState::kDisabled;
  std::string ship_target;  ///< "host:port" currently shipped to ("" = none)
  ShipCounters ship;
  /// Per-tenant quota / admission state.
  struct TenantStatus {
    std::string tenant;
    std::size_t sessions = 0;        ///< live sessions held
    std::size_t inflight_tells = 0;  ///< tells currently executing
    std::size_t queued = 0;          ///< opens waiting in the admission queue
  };
  struct QuotaReport {
    bool enabled = false;          ///< any TenantQuotas knob configured
    std::size_t queue_depth = 0;   ///< opens currently waiting
    std::size_t queued = 0;        ///< cumulative opens that ever waited
    std::size_t granted = 0;       ///< queued opens later admitted
    std::size_t timeouts = 0;      ///< queued opens that gave up waiting
    std::size_t shed_anonymous = 0;   ///< anonymous opens refused at the cap
    std::size_t shed_over_quota = 0;  ///< opens refused by a tenant quota
    std::size_t shed_queue_full = 0;  ///< opens refused by the queue bound
    std::size_t tell_pushbacks = 0;   ///< tells refused by the in-flight quota
    std::vector<TenantStatus> tenants;  ///< sorted by tenant name
  };
  QuotaReport quotas;
};

/// One live session snapshot (status endpoint detail rows).
struct SessionInfo {
  std::string id;
  std::string algorithm;
  std::size_t budget = 0;
  std::size_t asks = 0;
  std::size_t tells = 0;
  bool finished = false;
  std::chrono::milliseconds idle{0};
};

class SessionManager {
 public:
  /// `store` (optional) is the daemon-wide results store: every
  /// acknowledged tell of a session that declared a (benchmark, arch)
  /// tenant — live, WAL-recovered or ship-applied — is appended to it, and
  /// warm_start opens snapshot their prior from it.
  explicit SessionManager(SessionLimits limits = {},
                          std::shared_ptr<store::ResultsStore> store = nullptr);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Restore the sessions a previous process journaled in
  /// limits_.state_dir. Call once, before serving requests. A primary
  /// replays them at once, so divergence is found before it listens; a
  /// `follower` only indexes them (each replays at first touch). No-op
  /// without a state dir; throws std::runtime_error when it is unusable.
  RecoveryStats recover(bool follower = false);

  /// Throws ProtocolError (kRetryLater at the session cap, kBadRequest for
  /// an unknown algorithm or bad space). Returns the new session id. A
  /// non-empty idempotency `token` makes re-opening after a lost response
  /// safe: a token already bound to a live session returns that session.
  [[nodiscard]] std::string open(const OpenParams& params,
                                 const std::string& token = {});

  /// Blocks until the session proposes a measurement (config) or finishes
  /// (nullopt). Throws ProtocolError kUnknownSession / kSessionEvicted /
  /// kAskPending / kSessionClosed / kDeadlineExceeded. `resume` re-fetches
  /// an already-outstanding proposal (reconnect path) instead of tripping
  /// kAskPending. A first touch replays the journal first (see
  /// materialize()); `deadline` bounds only the ask after it.
  [[nodiscard]] std::optional<tuner::Configuration> ask(
      const std::string& id,
      const std::optional<std::chrono::steady_clock::time_point>& deadline =
          std::nullopt,
      bool resume = false);

  struct TellAck {
    std::size_t remaining = 0;  ///< budget remaining estimate (budget - tells)
    bool duplicate = false;     ///< seq already applied; nothing re-applied
  };
  /// Apply one measurement. seq == 0 means "no idempotency" (legacy
  /// clients); otherwise seq must be applied_seq+1 (a replay of applied_seq
  /// or lower is acknowledged as duplicate, a gap is kBadRequest).
  TellAck tell(const std::string& id, const tuner::Evaluation& evaluation,
               std::uint64_t seq);
  std::size_t tell(const std::string& id, const tuner::Evaluation& evaluation) {
    return tell(id, evaluation, 0).remaining;
  }

  struct ResultPayload {
    tuner::TuneResult result;
    tuner::FailureCounters counters;
  };
  /// Blocks until the search terminates. kInternal carries an escaped
  /// search-thread exception's message.
  [[nodiscard]] ResultPayload result(
      const std::string& id,
      const std::optional<std::chrono::steady_clock::time_point>& deadline =
          std::nullopt);

  /// Cancel (if still running) and destroy; deletes the journal. Throws
  /// kUnknownSession / kSessionEvicted.
  void close(const std::string& id);

  /// Evict sessions idle beyond the limit; returns how many were evicted.
  /// Each victim's journal gets a terminal eviction record (so a restart
  /// tombstones it instead of resurrecting it) and its id is tombstoned.
  std::size_t evict_idle();

  /// Cancel and destroy every session (drain/shutdown path). Journals are
  /// left in place deliberately: sessions a daemon shuts down under are
  /// recovered — not lost — on the next start.
  void cancel_all();

  // --- standby (follower) path ---------------------------------------------
  // A follower journals shipped records (fsync'd before returning) and
  // builds no search; every call tolerates duplicate delivery (resync).

  /// Register a shipped open under the *primary's* id. Throws kBadRequest
  /// on an unknown algorithm/space and kRetryLater at the session cap.
  void follow_open(const std::string& id, const OpenParams& params,
                   const std::string& token);

  /// Journal a shipped tell and append its store row. A seq at or below the
  /// watermark is acked as duplicate; a seq gap or a config outside the
  /// space is kBadRequest; a session this daemon serves is kWrongRole.
  TellAck follow_tell(const std::string& id, std::uint64_t seq,
                      const tuner::Configuration& config,
                      const tuner::Evaluation& evaluation);

  /// Shipped close/evict terminal records. Both tolerate an unknown id
  /// (duplicate delivery after the first already removed the session).
  void follow_close(const std::string& id);
  void follow_evict(const std::string& id);

  /// Attempt the first follower connection (+ resync) eagerly so `status`
  /// reflects replication health immediately. No-op without ship config.
  void connect_shipper();

  // --- self-healing --------------------------------------------------------

  /// Point WAL shipping at a (new) follower and resync it from scratch:
  /// store snapshot, then every live journal, then the digest gate. The
  /// re-seeding path after a failover consumed the old standby. Returns
  /// true when the follower came up hot on this first attempt; false means
  /// it is still catching up (the shipper keeps redialing in the
  /// background). Throws ProtocolError kBadRequest without durability
  /// (resync needs local journals) or with port == 0.
  bool reseed(const std::string& host, std::uint16_t port);

  /// Demote this (deposed) primary into a clean standby: cancel every live
  /// session, delete their journals (the divergent tail the new primary
  /// never acknowledged), reset the results store to empty, and disable
  /// shipping. After this the daemon can be re-seeded by the new primary
  /// with zero operator action. Returns the number of sessions dropped.
  std::size_t demote_reset();

  /// Replicate an imported store seed batch to the hot standby so both
  /// stores converge without waiting for live tells. No-op without ship
  /// config; replication failure degrades, it never fails the import.
  void ship_store_import(const std::vector<store::TenantSnapshot>& tenants);

  /// Lock-free replication link state (kDisabled when no shipper exists).
  /// Cheap enough for the server's accept tick to poll for a fence.
  [[nodiscard]] ShipState ship_state() const noexcept {
    return shipper_ == nullptr ? ShipState::kDisabled : shipper_->state();
  }

  [[nodiscard]] std::size_t live() const;
  [[nodiscard]] StatusReport status() const;
  [[nodiscard]] std::vector<SessionInfo> sessions() const;
  [[nodiscard]] const SessionLimits& limits() const noexcept { return limits_; }

 private:
  /// One registered session. open() and a primary's recover() build its
  /// search at once; a followed session gets it at first touch.
  struct ManagedSession {
    ManagedSession(OpenParams params, tuner::ParamSpace space_in,
                   std::unique_ptr<tuner::SearchAlgorithm> algorithm_in, std::string token_in)
        : open(std::move(params)), space(std::move(space_in)),
          algorithm_name(algorithm_in->name()), algorithm(std::move(algorithm_in)),
          token(std::move(token_in)) {}

    /// The search over the open parameters; takes `algorithm`.
    [[nodiscard]] std::unique_ptr<tuner::AskTellSession> make_search() {
      return std::make_unique<tuner::AskTellSession>(space, std::move(algorithm),
                                                     open.budget, open.seed, open.retry);
    }
    /// Cancel the search, if any; waits out a replay in flight.
    void cancel() {
      repro::MutexLock replay_lock(replay_mutex);
      if (search != nullptr) search->cancel();
    }

    /// As journaled (warm-start prior included). open.tenant is the quota
    /// identity ("" = anonymous); every removal path credits it back.
    const OpenParams open;
    const tuner::ParamSpace space;  ///< outlives `search`, which references it
    const std::string algorithm_name;  ///< display name ("BO GP")
    std::unique_ptr<tuner::SearchAlgorithm> algorithm;  ///< until make_search()
    const std::string token;  ///< open-idempotency token ("" = none)
    /// The store tenant every applied tell feeds; empty unless the open
    /// declared a (benchmark, arch) and a store is attached.
    std::optional<store::StoreKey> store_key;
    /// Journal; null when durability is off or the journal died on an IO
    /// error. Appends are serialized by the per-session client protocol.
    std::unique_ptr<SessionWal> wal;
    /// Serializes the first-touch replay with a follow_tell in flight and
    /// other first-touch ops.
    repro::Mutex replay_mutex;
    /// The fields below are written only while the owning manager's mutex_
    /// is held — `search` and `unreplayed` with replay_mutex too, so either
    /// lock suffices to read them (the analysis cannot express a guard that
    /// lives in another object, so this is a convention, not GUARDED_BY).
    std::unique_ptr<tuner::AskTellSession> search;
    std::vector<WalTell> unreplayed;  ///< journaled, not yet replayed
    std::chrono::steady_clock::time_point last_activity;
    /// Highest tell seq applied (idempotency watermark).
    std::uint64_t applied_seq = 0;
    /// True while the proposal a client may be answering was handed out by
    /// a previous incarnation (journal replay) or by the deposed primary
    /// (a followed session never serves asks). Gates the tell re-ask
    /// amnesty; cleared the moment this incarnation serves a client op.
    bool orphan_proposal = false;
  };

  [[nodiscard]] std::shared_ptr<ManagedSession> find_and_touch(const std::string& id);
  /// Append one applied tell to the results store (no-op when the session
  /// has no tenant). Store failures degrade (counted), never fail the tell.
  void store_append(const ManagedSession& managed, const tuner::Configuration& config,
                    const tuner::Evaluation& evaluation);
  /// The one session constructor (no search yet); kBadRequest for an
  /// unknown algorithm or a bad space.
  [[nodiscard]] std::shared_ptr<ManagedSession> make_session(const OpenParams& params,
                                                             const std::string& token) const;
  /// Register `managed` under `id` and keep fresh ids clear of it.
  void adopt_locked(const std::string& id, std::shared_ptr<ManagedSession> managed)
      REQUIRES(mutex_);
  using Registry = std::vector<std::pair<std::string, std::shared_ptr<ManagedSession>>>;
  /// Unregister `id` (nullptr when unknown) and credit its tenant.
  std::shared_ptr<ManagedSession> take_locked(const std::string& id) REQUIRES(mutex_);
  /// Unregister every session (shutdown/demote), flushing queued opens.
  Registry take_all(bool forget_tombstones);
  /// Journal and ship an unregistered session's eviction, then cancel it.
  void retire_evicted(const std::string& id, ManagedSession& managed);
  /// The one replay: build the search and replay the unreplayed tells,
  /// checking each journaled config echo; marks the proposal orphaned.
  /// Throws std::runtime_error naming the seq that diverges.
  void replay(ManagedSession& managed);
  /// The session's search, replayed at first touch. A diverged replay drops
  /// the session as recover() does (failed, journal kept) and is kInternal.
  tuner::AskTellSession& materialize(const std::string& id, ManagedSession& managed);
  /// Register an evicted id so later ops can be told the session was
  /// reaped (not "never existed"). Bounded FIFO. Requires mutex_.
  void add_tombstone(const std::string& id) REQUIRES(mutex_);
  void throw_missing(const std::string& id) REQUIRES(mutex_);

  /// One open() blocked in the admission queue. Shared between the waiting
  /// thread and the drain; all fields are written under mutex_.
  struct AdmissionWaiter {
    std::string tenant;
    bool granted = false;  ///< a freed slot was reserved for this waiter
    bool failed = false;   ///< abandoned (timeout) or flushed (shutdown)
  };

  /// Reserve one session slot for `tenant` or throw kRetryLater. On the
  /// overload path, named in-quota tenants wait in the admission queue up
  /// to quotas.admission_wait; anonymous/over-quota opens shed immediately.
  void admit(const std::string& tenant);
  /// Return an unconsumed admit() reservation (open failed before
  /// registering) and hand the slot to the next waiter.
  void release_admission(const std::string& tenant);
  /// Consume the caller's reservation into a live registration.
  void consume_reservation_locked(const std::string& tenant) REQUIRES(mutex_);
  /// Decrement a tenant's live-session count (no drain).
  void credit_tenant_locked(const std::string& tenant) REQUIRES(mutex_);
  /// Credit a removed session back to its tenant and wake queued opens.
  void note_removed_locked(const ManagedSession& managed) REQUIRES(mutex_);
  /// Hand freed slots to queued opens, deficit-round-robin across tenants
  /// (quantum one), until the cap is hit or the queue drains.
  void drain_admission_locked() REQUIRES(mutex_);
  /// Fail every queued open (shutdown/demote). Each wakes into retry_later.
  void flush_admission_locked() REQUIRES(mutex_);
  /// Depth-scaled backoff hint: the deeper the queue, the longer the
  /// caller should stay away.
  [[nodiscard]] std::uint64_t retry_hint_locked() const REQUIRES(mutex_);
  /// In-flight tell quota: charge one executing tell against `tenant`.
  /// Throws kRetryLater at the quota; returns false (nothing charged) for
  /// anonymous sessions or when the quota is off.
  bool begin_inflight_tell(const std::string& tenant);
  void end_inflight_tell(const std::string& tenant);

  const SessionLimits limits_;
  mutable repro::Mutex mutex_;
  Registry sessions_ GUARDED_BY(mutex_);
  std::vector<std::string> tombstones_ GUARDED_BY(mutex_);
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  std::size_t opened_ GUARDED_BY(mutex_) = 0;
  std::size_t closed_ GUARDED_BY(mutex_) = 0;
  std::size_t evicted_ GUARDED_BY(mutex_) = 0;
  std::size_t asks_total_ GUARDED_BY(mutex_) = 0;
  std::size_t tells_total_ GUARDED_BY(mutex_) = 0;
  std::size_t duplicate_tells_ GUARDED_BY(mutex_) = 0;
  std::size_t wal_errors_ GUARDED_BY(mutex_) = 0;
  std::size_t store_errors_ GUARDED_BY(mutex_) = 0;
  RecoveryStats recovery_ GUARDED_BY(mutex_);
  tuner::FailureCounters tallies_ GUARDED_BY(mutex_);
  // --- tenant quota / admission state (all under mutex_) -------------------
  /// Live sessions per named tenant (anonymous sessions are uncounted).
  std::unordered_map<std::string, std::size_t> tenant_live_ GUARDED_BY(mutex_);
  /// Tell() calls currently executing per named tenant.
  std::unordered_map<std::string, std::size_t> tenant_inflight_ GUARDED_BY(mutex_);
  /// Slots reserved by admitted-but-not-yet-registered opens. Capacity is
  /// always sessions_.size() + reserved_ against max_sessions.
  std::size_t reserved_ GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::string, std::size_t> reserved_by_tenant_
      GUARDED_BY(mutex_);
  /// Per-tenant FIFO sub-queues (ordered map: the DRR cursor walks tenant
  /// names in sorted order, wrapping).
  std::map<std::string, std::deque<std::shared_ptr<AdmissionWaiter>>>
      admission_queues_ GUARDED_BY(mutex_);
  std::string drr_cursor_ GUARDED_BY(mutex_);
  std::size_t admission_depth_ GUARDED_BY(mutex_) = 0;
  std::size_t admission_queued_total_ GUARDED_BY(mutex_) = 0;
  std::size_t admission_granted_ GUARDED_BY(mutex_) = 0;
  std::size_t admission_timeouts_ GUARDED_BY(mutex_) = 0;
  std::size_t shed_anonymous_ GUARDED_BY(mutex_) = 0;
  std::size_t shed_over_quota_ GUARDED_BY(mutex_) = 0;
  std::size_t shed_queue_full_ GUARDED_BY(mutex_) = 0;
  std::size_t tell_pushbacks_ GUARDED_BY(mutex_) = 0;
  /// Waiters block here via MutexLock::native(); signalled by the drain.
  std::condition_variable admission_cv_;
  /// Primary-side replication; null unless ship.port != 0 or a state_dir is
  /// configured (the latter so a standby can later be re-seeded *from* —
  /// i.e. retargeted — without racing shipper_ creation). Own internal
  /// lock — ship calls must not (and do not) hold mutex_, they block on the
  /// follower's network ack.
  std::unique_ptr<WalShipper> shipper_;
  /// Daemon-wide results store; null disables tenancy. Thread-safe with its
  /// own internal locking — never touched under mutex_.
  std::shared_ptr<store::ResultsStore> store_;
};

}  // namespace repro::service
