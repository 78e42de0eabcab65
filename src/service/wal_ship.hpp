#pragma once
// WAL shipping: hot-standby replication for `tuned` shards.
//
// A primary shard with --ship-to configured streams every session WAL
// record (open / tell / close / evict) to a follower daemon over the
// ordinary JSON-lines protocol (ops ship_open / ship_tell / ship_close /
// ship_evict, advertised as the "cluster" hello feature). The follower
// appends each record to its *own* fsync'd per-session journal and runs no
// search: a promoted standby replays a session's journal at its first
// touch (session_manager.hpp), so promotion itself replays nothing.
//
// Durability contract. A ship call is synchronous: the primary's tell ack
// leaves only after (a) the local journal fsync and (b) the follower's ack
// — and the follower acks only after its own fsync. While the link is up,
// an acknowledged tell exists on two disks, so a SIGKILL'd primary loses
// nothing. When the link is down the primary keeps serving (availability
// over replication) and reports itself degraded via `status`; every
// successful (re)connect first re-ships all live journals from the state
// dir ("resync"), and the follower acknowledges duplicates idempotently
// (per-session seq watermark), so a follower that crashed, tore its journal
// tail, or missed records while partitioned converges back to the
// primary's state.
//
// Catch-up state machine. The link is one of:
//
//   down ──connect──▶ catching_up ──resync + digest gate──▶ hot
//     ▲                   │  ▲                                │
//     └── RPC failure ────┘  └──────── link loss ─────────────┘
//   (fenced is terminal until retarget())
//
// A fresh link is *catching up* while the resync re-ships every live
// journal and (when a results store is attached) a full store snapshot.
// It flips *hot* only once the watermark gap is closed — every journaled
// record acked — and the follower's ResultsStore::digest() equals the
// local one. Live records ship during catch-up too (they serialize behind
// the resync on the link mutex), so the gap only shrinks. A re-seeded
// follower killed mid-catch-up resumes from its per-session seq
// watermarks on the next redial: duplicates are acked idempotently, never
// re-applied.
//
// Re-seeding. retarget() points the shipper at a replacement follower
// (clearing a fence), which is how a promoted primary regains a standby —
// either by operator action or automatically via the router's `reseed`
// wire op. A background redial thread keeps re-dialing a lost follower on
// the reconnect interval so re-seeding needs no live client traffic to
// make progress.
//
// Fencing. A follower that has been promoted answers ship ops with the
// typed error wrong_role (its hello also advertises role "primary"); the
// shipper then fences itself — a stale primary must never again be
// treated as replicated. The fence holds until retarget(): the deposed
// primary demotes itself, wipes its divergent tail, and rejoins as the
// new standby (server.cpp auto-rejoin).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/thread_annotations.hpp"
#include "service/protocol.hpp"
#include "service/client.hpp"
#include "store/results_store.hpp"

namespace repro::service {

struct ShipConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 disables shipping entirely
  /// The primary's own journal directory — the resync source. Shipping
  /// requires durability: without local journals there is nothing to
  /// re-ship after a link outage.
  std::string state_dir;
  /// Per-RPC deadline: connect, handshake, and each ship call must finish
  /// within this bound or the link is declared down (a hung follower must
  /// not park the primary's tell path forever).
  std::chrono::milliseconds rpc_timeout{5000};
  /// Minimum spacing between reconnect attempts while the link is down, so
  /// a dead follower costs one connect() per interval, not per tell. Also
  /// the redial thread's cadence.
  std::chrono::milliseconds reconnect_interval{250};
  /// Rows per store_import frame when resync ships the store snapshot.
  std::size_t store_page_rows = 2048;
  std::string name = "wal_ship/1";
};

/// Observable link state (lock-free; safe to read while a resync holds the
/// shipper mutex). kDisabled = no target configured (port 0).
enum class ShipState { kDisabled, kDown, kCatchingUp, kHot, kFenced };

[[nodiscard]] const char* to_string(ShipState state) noexcept;

/// Replication-side tallies (surfaced through the `status` endpoint).
struct ShipCounters {
  std::size_t records_shipped = 0;    ///< acked ship RPCs (all kinds)
  std::size_t duplicates_acked = 0;   ///< follower answered {"duplicate":true}
  std::size_t resyncs = 0;            ///< full journal re-ships performed
  std::size_t reconnects = 0;         ///< successful connects after the first
  std::size_t failures = 0;           ///< RPCs that failed (link went down)
  std::size_t retargets = 0;          ///< retarget() calls (re-seed attempts)
  std::size_t store_rows_resynced = 0;  ///< snapshot rows shipped by resyncs
};

/// Primary-side shipper. Thread-safe: ship calls from concurrent session
/// ops are serialized on one link (per-session record order is already
/// guaranteed by the session protocol; the mutex only interleaves
/// sessions). Every method is non-throwing: replication failure degrades
/// the shard, it never fails the client's request.
class WalShipper {
 public:
  /// `store` (optional) is the primary's results store: resync then ships
  /// a full snapshot and gates the hot flip on digest equality with the
  /// follower. Pass nullptr to skip the store leg (journal-only resync).
  explicit WalShipper(ShipConfig config,
                      std::shared_ptr<store::ResultsStore> store = nullptr);
  ~WalShipper();

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  /// Each returns true when the follower acked (record is on two disks).
  bool ship_open(const std::string& id, const std::string& token,
                 const OpenParams& params);
  bool ship_tell(const std::string& id, std::uint64_t seq,
                 const tuner::Configuration& config,
                 const tuner::Evaluation& evaluation);
  bool ship_close(const std::string& id);
  bool ship_evict(const std::string& id);

  /// Replicate a store_import seed batch to the follower's store (store
  /// ops answer on any role, so the record rides the same link as ship_*).
  /// Idempotent on redelivery: the follower's store dedups rows.
  bool ship_store_import(const std::vector<store::TenantSnapshot>& tenants);

  /// Link currently established and not fenced. False = the shard is
  /// degraded (serving without a live standby).
  [[nodiscard]] bool connected() const;
  /// Stopped after the follower reported wrong_role (it was promoted; this
  /// process is a stale primary). Cleared only by retarget().
  [[nodiscard]] bool fenced() const;
  /// A ship target is configured (port != 0).
  [[nodiscard]] bool enabled() const;
  /// Lock-free link state — readable even while a resync is in flight.
  [[nodiscard]] ShipState state() const noexcept {
    return state_.load(std::memory_order_acquire);
  }
  /// Resync complete and digest gate passed: the follower is a promotable
  /// hot standby.
  [[nodiscard]] bool hot() const noexcept { return state() == ShipState::kHot; }
  [[nodiscard]] ShipCounters counters() const;
  /// Current follower endpoint (changes on retarget()).
  [[nodiscard]] std::pair<std::string, std::uint16_t> target() const;

  /// Point the shipper at a replacement follower: tears down the link,
  /// clears a fence, and swaps host/port (port 0 disables shipping — the
  /// demoted-standby configuration). The next connect re-seeds the new
  /// follower via the ordinary resync path. Does not connect by itself;
  /// call connect_now() or let the redial thread pick it up.
  void retarget(const std::string& host, std::uint16_t port);

  /// Force a connect (+ resync) attempt now, ignoring the reconnect
  /// backoff window. Returns connected(). Used at startup and by tests.
  bool connect_now();

 private:
  /// Ensure the link is up, resyncing journals on a fresh connect.
  bool ensure_link(bool ignore_backoff) REQUIRES(mutex_);
  /// One RPC on the established link; tears the link down on failure.
  [[nodiscard]] std::optional<Json> call(const Json& request) REQUIRES(mutex_);
  /// Ship one record, transparently resync-retrying an unknown_session
  /// answer once (the follower restarted and lost a journal tail).
  bool ship(const Json& request) ;
  /// Store snapshot, then every live journal in state_dir (duplicates
  /// acked), then the digest gate. Snapshot-first keeps the follower's
  /// per-tenant row order identical to ours (the digest is order-chained).
  bool resync() REQUIRES(mutex_);
  /// Ship one resync record; true when the follower acked it.
  bool reship(const Json& record) REQUIRES(mutex_);
  /// Ship the local store snapshot page by page.
  bool resync_store() REQUIRES(mutex_);
  /// Compare follower store digest with ours. True when equal (or no store
  /// is attached / the follower has none — nothing to gate on).
  bool store_digest_gate() REQUIRES(mutex_);
  /// Redial thread body: re-dials a lost (non-fenced) link on the
  /// reconnect cadence so re-seeding progresses without client traffic.
  void redial_loop();

  ShipConfig config_ GUARDED_BY(mutex_);  ///< host/port mutate on retarget()
  const std::shared_ptr<store::ResultsStore> store_;
  mutable repro::Mutex mutex_;
  /// The follower link; every call on it ends by rpc_timeout.
  std::unique_ptr<RpcLink> link_ GUARDED_BY(mutex_);
  bool fenced_ GUARDED_BY(mutex_) = false;
  bool ever_connected_ GUARDED_BY(mutex_) = false;
  /// Reconnect pacing; never feeds tuning results.
  std::chrono::steady_clock::time_point last_attempt_ GUARDED_BY(mutex_);
  bool attempted_ GUARDED_BY(mutex_) = false;
  ShipCounters counters_ GUARDED_BY(mutex_);
  std::atomic<ShipState> state_{ShipState::kDown};

  /// Redial machinery. The thread parks on redial_cv_ so destruction is
  /// prompt; infrastructure timing, never feeds tuning results.
  std::thread redial_thread_;  // NOLINT(reprolint-raw-thread)
  std::mutex redial_mutex_;
  std::condition_variable redial_cv_;
  bool stopping_ = false;  ///< guarded by redial_mutex_
};

}  // namespace repro::service
