#pragma once
// Client side of the tuning service: a synchronous RPC wrapper over the
// JSON-lines protocol plus a remote_minimize() convenience that drives a
// whole ask/tell loop against a caller-supplied objective, and RpcLink, the
// bounded link tunelb and the WAL shipper use instead (see below).
//
// A Client owns one connection and performs the versioned hello handshake in
// connect(). Calls are strictly request/response, so one Client must not be
// shared between threads without external serialization; open as many
// clients (or sessions per client) as you need instead — sessions are
// addressed by id, not by connection.
//
// Resilience (all opt-in via ClientConfig):
//  - max_retries > 0 turns transport failures on idempotent requests into
//    reconnect + replay with deterministic exponential backoff (no RNG —
//    the backoff schedule is a pure function of the attempt number, so a
//    chaos-injected fault sequence replays bit-identically).
//  - Idempotency: tell carries a monotonic per-session seq (a replayed
//    duplicate is acknowledged, not double-applied), ask carries
//    resume:true (a reconnect re-fetches the proposal whose response was
//    lost), and open can carry a caller-supplied idempotency token.
//  - RETRY_LATER admission pushback is honored by waiting the server's
//    retry_after_ms hint (even for non-idempotent requests — pushback
//    means the request was not performed).
//  - heartbeat_ms > 0 bounds blocking asks/results with deadline_ms and
//    re-issues on deadline_exceeded: each cycle is a complete exchange, so
//    the server sees a live, progressing connection (and the session's
//    idle-eviction clock is touched) even while a slow search thinks.
//  - chaos.enabled injects deterministic, seeded network faults under the
//    framing layer (tests only; see service/chaos_socket.hpp).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/socket.hpp"
#include "service/chaos_socket.hpp"
#include "service/protocol.hpp"

namespace repro::service {

/// Thrown on transport failures (connect/read/write) as opposed to typed
/// server-side ProtocolError responses, which are rethrown as ProtocolError.
struct ClientError : std::runtime_error {
  enum class Kind {
    kConnect,       ///< could not establish the connection / handshake
    kNotConnected,  ///< call() without connect()
    kSend,          ///< connection lost while sending the request
    kClosed,        ///< orderly close while awaiting the response
    kMidFrameEof,   ///< stream torn mid-response-frame (partial frame lost)
    kMalformed,     ///< response was not a valid JSON frame
  };
  Kind kind;
  ClientError(Kind kind_in, const std::string& message)
      : std::runtime_error(message), kind(kind_in) {}
};

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "tune_client/1";
  /// Quota identity sent in the hello ("" = anonymous). The server scopes
  /// per-tenant session/tell quotas to it; under overload anonymous
  /// clients are shed first.
  std::string tenant;
  struct Endpoint {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
  };
  /// Client-side failover list. When non-empty it overrides host/port:
  /// every (re)connect walks the list *from the front* and takes the first
  /// endpoint that accepts and completes the hello handshake. The order is
  /// deterministic by design — identical runs dial identical endpoints —
  /// and a recovered earlier endpoint is preferred again on the next
  /// reconnect (sessions are addressed by id, not by connection, and with
  /// a cluster behind the list any router can route any session).
  std::vector<Endpoint> endpoints;
  /// Transport-failure retries per request (idempotent requests only).
  /// 0 = fail fast (legacy behavior).
  std::size_t max_retries = 0;
  /// Deterministic exponential backoff between retries:
  /// min(initial * multiplier^attempt, max). No jitter by design — the
  /// schedule must replay bit-identically under chaos testing.
  std::uint64_t backoff_initial_ms = 10;
  double backoff_multiplier = 2.0;
  std::uint64_t backoff_max_ms = 1000;
  /// Bound blocking asks/results to this per-attempt deadline and re-issue
  /// on deadline_exceeded (liveness heartbeat). 0 = park indefinitely.
  std::uint64_t heartbeat_ms = 0;
  /// Deterministic network-fault injection (tests). Each (re)connect seeds
  /// its injector with seed_combine(chaos_seed, connect_count) so fault
  /// placement is reproducible yet differs across reconnects.
  ChaosModel chaos;
  std::uint64_t chaos_seed = 0;
};

class Client {
 public:
  Client() = default;
  explicit Client(ClientConfig config) : config_(std::move(config)) {}

  /// Connect and perform the hello handshake. Throws ClientError on
  /// transport failure, ProtocolError (kVersionMismatch) when the server
  /// speaks a different protocol version.
  void connect();
  [[nodiscard]] bool connected() const noexcept { return connected_; }
  void disconnect();

  /// Raw RPC, single attempt on the current connection: send one request
  /// frame, return the response object. Throws ClientError on transport
  /// failure and ProtocolError when the server answers {"ok":false,...}.
  Json call(const Json& request);

  /// A non-empty idempotency `token` makes the open replay-safe: retried
  /// after a lost response, the server returns the existing session
  /// instead of opening a twin. Without a token, transport failures are
  /// not retried (the session may or may not exist server-side).
  [[nodiscard]] std::string open(const OpenParams& params,
                                 const std::string& token = {});
  /// nullopt once the session's search has terminated (fetch result()).
  [[nodiscard]] std::optional<tuner::Configuration> ask(const std::string& session);
  /// Returns the server's remaining-budget estimate.
  std::size_t tell(const std::string& session, const tuner::Evaluation& evaluation);
  std::size_t tell(const std::string& session, double value) {
    return tell(session, tuner::Evaluation{value, true, tuner::EvalStatus::kOk});
  }

  struct RemoteResult {
    tuner::TuneResult result;
    tuner::FailureCounters counters;
  };
  [[nodiscard]] RemoteResult result(const std::string& session);
  void close_session(const std::string& session);
  [[nodiscard]] Json status();
  void ping();

  /// Results-store ops (see docs/SERVICE.md). store_stats answers on any
  /// daemon (store_enabled:false when no store is configured); export and
  /// import answer kBadRequest without one.
  [[nodiscard]] Json store_stats();

  /// One page of a paged export. `next_cursor` is non-empty while more rows
  /// remain: pass it back as `cursor` to resume where this page stopped. A
  /// tenant whose rows span pages appears in each with the next row slice.
  struct ExportPage {
    std::vector<store::TenantSnapshot> tenants;
    bool truncated = false;    ///< rows beyond this page exist
    std::string next_cursor;   ///< resume token ("" = export complete)
  };
  [[nodiscard]] ExportPage store_export_page(const std::string& benchmark = "",
                                             const std::string& arch = "",
                                             std::size_t limit = 0,
                                             const std::string& cursor = "");

  /// Export tenant histories, optionally filtered. limit > 0 issues one
  /// request for at most that many rows (check store_export_page for the
  /// resume cursor); limit == 0 pages through the server's frame-size
  /// budget until the export is complete, merging page slices per tenant.
  [[nodiscard]] std::vector<store::TenantSnapshot> store_export(
      const std::string& benchmark = "", const std::string& arch = "",
      std::size_t limit = 0);
  /// Import tenant histories; returns the count of newly stored records
  /// (duplicates dedup server-side).
  std::size_t store_import(const std::vector<store::TenantSnapshot>& tenants);

  /// Drive a complete remote tuning session: open (with a deterministic
  /// idempotency token when retries are enabled), ask/tell with `objective`
  /// until the algorithm terminates, fetch the result, close.
  [[nodiscard]] RemoteResult remote_minimize(const OpenParams& params,
                                             const tuner::Objective& objective);

  /// Fault-injection tallies of the current connection's injector (zeroes
  /// when chaos is disabled or not connected).
  [[nodiscard]] ChaosCounters chaos_counters() const noexcept;
  /// Transport retries performed over this client's lifetime.
  [[nodiscard]] std::size_t retries() const noexcept { return retries_; }
  /// Reconnects performed over this client's lifetime (excludes the first
  /// connect()).
  [[nodiscard]] std::size_t reconnects() const noexcept { return reconnects_; }
  /// Index into config.endpoints the current (or last) connection used
  /// (always 0 when endpoints is empty).
  [[nodiscard]] std::size_t endpoint_index() const noexcept { return endpoint_index_; }

 private:
  /// The stream the framing layer uses: the chaos injector when enabled,
  /// the raw socket otherwise.
  [[nodiscard]] ByteIo& stream() noexcept;
  /// Dial + handshake one endpoint; throws ClientError/ProtocolError.
  void connect_one(const std::string& host, std::uint16_t port);
  /// call() + reconnect/backoff/RETRY_LATER handling. Transport failures
  /// replay only when the op table's replay rule allows it; RETRY_LATER is
  /// honored either way.
  Json call_resilient(const Json& request);
  void backoff_sleep(std::size_t attempt, std::uint64_t floor_ms);

  ClientConfig config_;
  Socket socket_;
  std::unique_ptr<ChaosSocket> chaos_;
  std::optional<FrameReader> reader_;
  bool connected_ = false;
  std::uint64_t connect_count_ = 0;
  std::size_t endpoint_index_ = 0;
  std::size_t retries_ = 0;
  std::size_t reconnects_ = 0;
  std::uint64_t open_counter_ = 0;
  /// Next tell seq per session id (1-based; the server acknowledges
  /// duplicates of anything at or below its applied watermark).
  std::unordered_map<std::string, std::uint64_t> next_seq_;
};

/// One bounded RPC link: dial, hello, then calls that each end by a deadline
/// the caller gives. tunelb's probes, promote and reseed use it one shot at
/// a time (call_once); the WAL shipper keeps one open. Deliberately not a
/// Client: a wedged (SIGSTOPped, partitioned) peer that still accepts TCP
/// must never park a probe or the primary's tell path past its budget, so
/// the link reads in short ticks and gives up at the deadline.
class RpcLink {
 public:
  using Clock = std::chrono::steady_clock;

  /// Dial host:port; writes give up after `write_timeout`. Throws
  /// std::runtime_error when nothing accepts.
  RpcLink(const std::string& host, std::uint16_t port,
          std::chrono::milliseconds write_timeout);
  RpcLink(const RpcLink&) = delete;
  RpcLink& operator=(const RpcLink&) = delete;

  /// Handshake as `client`. The peer's reply when it accepted the hello;
  /// nullopt on a refusal, a transport failure or the deadline.
  [[nodiscard]] std::optional<Json> hello(const std::string& client,
                                          Clock::time_point deadline);
  /// One request, one reply, by `deadline`. nullopt on a transport failure,
  /// an unparsable reply or the deadline.
  [[nodiscard]] std::optional<Json> call(const Json& request, Clock::time_point deadline);

 private:
  Socket socket_;
  FrameReader reader_;
};

/// Dial, hello as `client` and make one call, all within `timeout`.
[[nodiscard]] std::optional<Json> call_once(const std::string& host, std::uint16_t port,
                                            const std::string& client,
                                            std::chrono::milliseconds timeout,
                                            const Json& request);

}  // namespace repro::service
