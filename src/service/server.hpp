#pragma once
// `tuned` server: the daemon's op handlers over the shared connection core
// (service/frame_server.hpp), whose accept tick doubles as the
// idle-eviction heartbeat. Sessions are decoupled from connections — one
// connection may interleave any number of sessions by id, which is how a
// small worker pool serves 64+ concurrent sessions.
//
// Shutdown. stop() closes the listener, shuts down every live connection
// socket (unblocking parked readers), and cancels all sessions.
// drain(deadline) is the graceful path: stop accepting, let existing
// clients finish until no sessions/connections remain or the deadline
// expires, then stop().

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/thread_annotations.hpp"
#include "service/frame_server.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "store/results_store.hpp"

namespace repro::service {

struct ServerConfig {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  std::size_t connection_threads = 8;
  SessionLimits limits;
  /// Accept/read timeout tick: shutdown latency and eviction granularity.
  std::chrono::milliseconds poll_interval{200};
  /// Reap a connection that completes no request frame for this long
  /// (slow-loris / dead-peer guard). The timer only runs while the server
  /// waits for a frame — a request parked in a blocking ask/result does not
  /// count as idle. 0 disables.
  std::chrono::milliseconds connection_idle_timeout{0};
  /// Socket send timeout (a peer that stops reading cannot park a worker in
  /// write() forever). 0 leaves the OS default (unbounded).
  std::chrono::milliseconds write_timeout{10000};
  /// Hard cap on concurrently-open connections; excess accepts are answered
  /// with a retry_later error frame and closed. 0 = unlimited (the worker
  /// pool still bounds concurrent *service*; queued connections just wait).
  std::size_t max_connections = 0;
  /// Start as a hot standby: refuse normal session ops with wrong_role and
  /// accept ship_* records from a primary instead, until a promote op (or
  /// promote()) flips the role. A primary (standby=false) conversely
  /// refuses ship_* with wrong_role (promote is an idempotent ack).
  bool standby = false;
  /// Deposed-primary rejoin: when this primary's shipper fences (its
  /// follower was promoted — this daemon lost a failover race), demote
  /// automatically into a clean standby (drop divergent journals + store)
  /// so the new primary can re-seed it with zero operator action. Off by
  /// default: a fenced primary then keeps serving standalone (the operator
  /// decides), which is also what the in-process failover tests expect.
  bool auto_rejoin = false;
  /// Directory of the persistent cross-tenant results store ("" disables
  /// it). The store is loaded before session recovery so replayed tells can
  /// feed it, and every acknowledged tell of a tenant-identified session
  /// (open with benchmark+arch) is appended. Exposed over the wire as
  /// store_stats / store_export / store_import; warm-started opens read it.
  std::string store_dir;
  /// Live-record capacity of the results store (FIFO eviction past it).
  std::size_t store_capacity = 1u << 20;
  std::string name = "tuned/1";
};

class TuneServer {
 public:
  explicit TuneServer(ServerConfig config = {});
  ~TuneServer();

  TuneServer(const TuneServer&) = delete;
  TuneServer& operator=(const TuneServer&) = delete;

  /// Recover journaled sessions (when limits.state_dir is set), then bind,
  /// listen, and spawn the accept thread. Throws std::runtime_error when
  /// the state dir is unusable or the port cannot be bound.
  void start();

  [[nodiscard]] std::uint16_t port() const noexcept { return frames_.port(); }
  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] bool draining() const noexcept;

  /// Stop accepting; wait for live sessions and connections to end on
  /// their own. Returns true when the drain completed before the deadline
  /// (callers typically follow up with stop() either way).
  bool drain(std::chrono::milliseconds deadline);

  /// Hard stop: close listener + connections, cancel sessions, join
  /// everything. Idempotent.
  void stop();

  /// True while acting as a hot standby (refusing session ops).
  [[nodiscard]] bool standby() const noexcept;
  /// Flip a standby to primary (idempotent; also reachable over the wire
  /// via {"op":"promote"}). Shipped sessions are already live, so the
  /// promoted shard serves its first ask with no replay delay. Returns
  /// true when the role flipped, false when already primary (the wire
  /// reply then carries "already_primary" so a racing double-promote is
  /// observable).
  bool promote();
  /// Flip a (deposed) primary back to standby, dropping its divergent
  /// state via SessionManager::demote_reset(). Idempotent. Driven by
  /// auto_rejoin when the shipper fences; also callable directly.
  void demote();
  /// Times demote() flipped the role (the rejoin counter).
  [[nodiscard]] std::size_t demotions() const;

  [[nodiscard]] SessionManager& sessions() noexcept { return *manager_; }
  [[nodiscard]] const SessionManager& sessions() const noexcept { return *manager_; }
  /// The daemon's results store; nullptr unless config.store_dir is set.
  [[nodiscard]] const std::shared_ptr<store::ResultsStore>& store() const noexcept {
    return store_;
  }
  /// Open connections, plus those accepted, reaped by
  /// connection_idle_timeout and refused by max_connections so far.
  [[nodiscard]] ConnectionCounters connections() const { return frames_.counters(); }

 private:
  class Connection;  // ConnectionHandler over dispatch()

  /// Answer one op after the hello: the op-table role gate, then the op's
  /// handler. The tenant arrives once, in the hello, and is stamped into
  /// every open on the connection — quota identity is a property of the
  /// authenticated link, not of individual requests (a request-level field
  /// could be spoofed per-open).
  [[nodiscard]] Json dispatch(Op op, const Json& request, const std::string& quota_tenant);
  [[nodiscard]] Json status_reply();
  /// The accept tick: idle eviction and deposed-primary rejoin.
  void idle_tick();

  ServerConfig config_;
  /// Created before (and shared with) the session manager; internally
  /// synchronized, so handlers use it without mutex_.
  std::shared_ptr<store::ResultsStore> store_;
  std::unique_ptr<SessionManager> manager_;
  /// Listener, accept thread, connection workers, framing and hello.
  /// Declared after manager_: its workers run handlers that use it.
  FrameServer frames_;

  mutable repro::Mutex mutex_;
  bool started_ GUARDED_BY(mutex_) = false;
  bool draining_ GUARDED_BY(mutex_) = false;
  bool standby_ GUARDED_BY(mutex_) = false;
  std::size_t promotions_ GUARDED_BY(mutex_) = 0;
  std::size_t demotions_ GUARDED_BY(mutex_) = 0;
};

}  // namespace repro::service
