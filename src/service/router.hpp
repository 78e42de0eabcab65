#pragma once
// `tunelb`: session-affine front router for a sharded `tuned` cluster.
//
// Topology. N shards, each a primary `tuned` plus an optional hot standby
// the primary ships its WAL to (service/wal_ship.hpp). The router is the
// only endpoint clients need: it speaks the same JSON-lines protocol,
// places each new session on a shard, and forwards session ops by id.
//
// Placement. Consistent hashing over a ring of virtual nodes
// (ring_replicas per shard, FNV-1a over "shard-<idx>#<replica>"). The
// placement key is the open's idempotency token when present — a retried
// open lands on the same shard even through a different router — else a
// router-local anonymous counter. Down shards are skipped by walking the
// ring; when every shard is down the open is answered retry_later.
//
// Naming. Session ids returned to clients are namespaced "<shard>:<sid>"
// so routing is stateless: any router (including one that just restarted)
// can route any session op without a session table.
//
// Health. A prober thread walks the shards every probe_interval and
// assigns each a typed state: kUp (responding, replication healthy or
// off), kDegraded (responding, but shipping to its standby is down or the
// shard reports fenced/draining), kDown (unreachable for
// probe_failures_before_down consecutive probes). A shard observed down —
// by the prober or synchronously by a forwarding failure — with a standby
// configured is failed over: the standby gets {"op":"promote"} and
// becomes the shard's endpoint (the old primary, if it ever comes back,
// fences itself on the standby's wrong_role answers).
//
// Forwarding & retry. What the router does with each op — answer, place,
// forward by session id, fan out, or refuse — is the op's route in the op
// table (protocol.hpp). Each client connection owns its own downstream
// clients (per shard, tagged with the shard's endpoint generation), so a
// blocking ask parks only its own connection. A transport failure
// triggers fail-over, then the request is retried on the shard's current
// endpoint — but only when the op table's replay rule allows it (open
// with token, tell with seq, ask with resume, result/close). Other
// requests surface the transport error to the client, which owns the
// retry decision. retry_later pushback from a shard is propagated
// verbatim, hint included.
//
// Self-healing. A failover consumes the shard's standby, leaving it
// un-replicated. The prober closes that gap automatically: for an up
// shard with no standby it looks for a replacement follower — the
// deposed ex-primary once it has demoted itself back to standby
// (tuned --auto-rejoin), else the first unused endpoint of the spares
// pool that answers status with role "standby" — and tells the shard's
// primary {"op":"reseed","host":...,"port":...}. The primary resyncs its
// store + journals into the follower and flips it hot; the router then
// records it as the shard's standby, ready for the next failover. A
// shard whose shipper is still catching up reports kDegraded until the
// resync completes.
//
// Tenancy. The client's hello may carry a tenant identity; the router
// re-sends it on every downstream hello so per-tenant quotas are
// enforced by the shards exactly as if the client had dialed them
// directly. Cluster status merges the shards' per-tenant quota tallies.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "service/client.hpp"
#include "service/frame_server.hpp"
#include "service/protocol.hpp"

namespace repro::service {

enum class ShardHealth { kUp, kDegraded, kDown };

[[nodiscard]] const char* to_string(ShardHealth health) noexcept;

/// One shard's addresses. standby_port == 0 means no standby (a failure
/// of the primary is then an outage for that shard's sessions).
struct ShardEndpoints {
  std::string primary_host = "127.0.0.1";
  std::uint16_t primary_port = 0;
  std::string standby_host = "127.0.0.1";
  std::uint16_t standby_port = 0;
};

/// A warm spare `tuned --standby` not yet attached to any shard. The
/// prober hands spares out (first unused, config order) to shards whose
/// standby was consumed by a failover.
struct SpareEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterConfig {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  std::vector<ShardEndpoints> shards;
  /// Pool of idle standby daemons the prober may attach as replacement
  /// followers after a failover. Each spare is used at most once.
  std::vector<SpareEndpoint> spares;
  std::size_t connection_threads = 8;
  /// Accept/read timeout tick (shutdown latency).
  std::chrono::milliseconds poll_interval{200};
  /// Health-probe cadence; <=0 disables the prober thread (failover then
  /// happens only synchronously, on forwarding failures).
  std::chrono::milliseconds probe_interval{500};
  /// Per-probe RPC budget (connect + hello + status).
  std::chrono::milliseconds probe_timeout{2000};
  /// Consecutive failed probes before a shard is declared kDown (and, with
  /// a standby, failed over). >=1.
  std::size_t probe_failures_before_down = 2;
  /// Virtual nodes per shard on the placement ring.
  std::size_t ring_replicas = 64;
  /// Socket send timeout towards clients.
  std::chrono::milliseconds write_timeout{10000};
  std::string name = "tunelb/1";
};

/// Snapshot of one shard's routing state (status endpoint + tests).
struct ShardSnapshot {
  std::size_t index = 0;
  std::string host;
  std::uint16_t port = 0;
  ShardHealth health = ShardHealth::kUp;
  bool has_standby = false;
  std::size_t promotions = 0;   ///< failovers performed on this shard
  std::size_t reseeds = 0;      ///< replacement standbys attached post-failover
  std::uint64_t generation = 0; ///< bumps on every endpoint change
  std::size_t sessions_placed = 0;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind, listen, spawn the accept + prober threads. Throws
  /// std::runtime_error when config is unusable (no shards) or the port
  /// cannot be bound.
  void start();
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return frames_.port(); }
  [[nodiscard]] bool running() const noexcept;

  [[nodiscard]] std::vector<ShardSnapshot> shards() const;
  /// Force one synchronous probe pass (tests; the prober thread does the
  /// same on its own cadence).
  void probe_now();

 private:
  struct ShardState {
    ShardEndpoints endpoints;       ///< current primary in the primary_* slots
    ShardHealth health = ShardHealth::kUp;
    bool standby_available = false; ///< a standby remains to fail over to
    std::size_t promotions = 0;
    std::size_t reseeds = 0;
    /// Endpoint of the primary a failover deposed. The prober re-probes it:
    /// once it answers status with role "standby" (it demoted and rejoined),
    /// it becomes the preferred re-seed candidate — its journals need only a
    /// catch-up, and no spare is consumed. Port 0 = none remembered.
    std::string deposed_host;
    std::uint16_t deposed_port = 0;
    /// The primary answered reseed with a typed refusal (e.g. it has no
    /// state dir to resync from) — permanent for this generation, so the
    /// prober stops asking. Cleared on the next failover.
    bool reseed_unsupported = false;
    std::uint64_t generation = 0;
    std::size_t consecutive_probe_failures = 0;
    std::size_t sessions_placed = 0;
  };

  /// Downstream connections owned by one client connection; `generation`
  /// tags which endpoint the cached client talks to.
  struct DownstreamSlot {
    std::unique_ptr<Client> client;
    std::uint64_t generation = 0;
  };
  /// Per-client-connection forwarding state: cached downstream clients
  /// plus the tenant identity from the client's hello (re-sent on every
  /// downstream hello so shards enforce quotas against the real tenant).
  struct Downstreams {
    std::unordered_map<std::size_t, DownstreamSlot> slots;
    std::string tenant;
  };

  class Connection;  // ConnectionHandler over dispatch()

  void probe_loop();
  /// Route one op by its op-table row.
  [[nodiscard]] Json dispatch(Op op, const Json& request, const std::string& tenant,
                              Downstreams& downstreams);
  /// Forward `request` (session already rewritten) to `shard`, with
  /// failover + single retry when `idempotent`.
  [[nodiscard]] Json forward(std::size_t shard, Json request, bool idempotent,
                             Downstreams& downstreams);
  [[nodiscard]] Json route_open(const Json& request, Downstreams& downstreams);
  /// Broadcast a results-store op to every shard primary and merge the
  /// replies (imports are dedup'd server-side, so the fan-out is replay-safe).
  [[nodiscard]] Json route_store(Op op, const Json& request, Downstreams& downstreams);
  /// Paged export across shards. The cursor is "<shard>|<daemon cursor>":
  /// shards are drained sequentially, each reply carries at most one
  /// daemon page, and the composite cursor resumes mid-shard.
  [[nodiscard]] Json route_store_export(const Json& request,
                                        Downstreams& downstreams);
  [[nodiscard]] Json aggregate_status();

  /// Pick the open-placement shard for `key` by walking the ring past down
  /// shards. nullopt when every shard is down.
  [[nodiscard]] std::optional<std::size_t> place(const std::string& key) const;

  /// Current endpoint + generation for a shard (what a downstream client
  /// should dial).
  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
    std::uint64_t generation = 0;
  };
  [[nodiscard]] Endpoint endpoint(std::size_t shard) const;

  /// React to an observed failure of `shard` at endpoint generation
  /// `observed_generation`: re-probe, and when the primary is really dead,
  /// promote the standby (if any) and swap endpoints. Returns true when
  /// the shard has a (possibly new) endpoint worth retrying against.
  bool fail_over(std::size_t shard, std::uint64_t observed_generation);

  /// One health probe of one shard; updates health/counters. Promotes via
  /// fail_over() when the down threshold is crossed; re-seeds a missing
  /// standby via maybe_reseed() when the shard is up without one.
  void probe_shard(std::size_t shard);

  /// Attach a replacement follower to an up shard that lost its standby:
  /// probe the deposed ex-primary (preferred) then unused spares for a
  /// daemon answering role "standby", and tell the shard's primary to
  /// {"op":"reseed"} it. `status` is the probe reply that just classified
  /// the shard — its ship_state/ship_target dedup in-flight resyncs and
  /// adopt a follower whose reseed reply was lost to a timeout.
  void maybe_reseed(std::size_t shard, const Endpoint& primary,
                    const Json& status);
  /// Record `host:port` as `shard`'s standby (post-reseed), consuming the
  /// matching spare / clearing the deposed memory. Generation-checked.
  void adopt_standby(std::size_t shard, std::uint64_t observed_generation,
                     const std::string& host, std::uint16_t port);

  RouterConfig config_;
  /// Listener, accept thread, connection workers, framing and hello.
  FrameServer frames_;
  /// Dedicated prober thread by design: pool workers handle (blocking)
  /// client connections and must not starve health checks.
  std::thread probe_thread_;  // NOLINT(reprolint-raw-thread)

  mutable repro::Mutex mutex_;
  std::vector<ShardState> shard_states_ GUARDED_BY(mutex_);
  /// spare_used_[i] — config_.spares[i] has been handed to a shard (a
  /// spare is attached at most once; it then lives as that shard's
  /// standby and, after a later failover, its primary).
  std::vector<bool> spare_used_ GUARDED_BY(mutex_);
  std::uint64_t anon_opens_ GUARDED_BY(mutex_) = 0;
  std::size_t reroutes_ GUARDED_BY(mutex_) = 0;  ///< idempotent retries after failover
  bool started_ GUARDED_BY(mutex_) = false;

  /// Placement ring: (hash, shard index), sorted by hash. Built once in
  /// start(); immutable afterwards (down shards are skipped at lookup).
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

/// Split a namespaced "<shard>:<sid>" session id. Returns nullopt when the
/// prefix is missing or not a valid shard index below `shard_count`.
[[nodiscard]] std::optional<std::pair<std::size_t, std::string>> split_session_id(
    const std::string& id, std::size_t shard_count);

/// FNV-1a 64-bit (placement hashing; stable across platforms/runs).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

}  // namespace repro::service
