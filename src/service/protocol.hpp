#pragma once
// Wire protocol of the tuning service: newline-delimited JSON frames with a
// hard frame-size cap, a versioned handshake, and typed errors.
//
// Framing. One frame = one JSON object serialized on a single line and
// terminated by '\n'. The reader enforces kMaxFrameBytes while scanning for
// the delimiter, so a hostile or corrupted peer cannot make the server
// buffer unbounded input; an oversized frame is a connection-fatal error
// (the stream can no longer be trusted to resynchronize).
//
// Ops. The first frame on a connection must be a hello,
//   {"op":"hello","version":1,"client":"<name>"},
// and every later op is a row of the op table below: its wire name, the
// daemon role that serves it, what tunelb does with it, and when it may be
// replayed after a failover. Responses are {"ok":true,...} or
// {"ok":false,"error":"<code>","message":"<human text>"}.
//
// Version-1 extension fields are all optional, so the version stays 1 and
// the hello response lists them in "features". docs/SERVICE.md holds the
// full grammar: every op's fields, the features, the error codes and the
// session lifecycle.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/socket.hpp"
#include "store/results_store.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/objective.hpp"
#include "tuner/search_space.hpp"
#include "tuner/tuner.hpp"
#include "tuner/warm_start.hpp"

namespace repro::service {

inline constexpr int kProtocolVersion = 1;
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

enum class ErrorCode {
  kBadRequest,       ///< well-formed JSON, invalid contents
  kMalformedFrame,   ///< frame is not valid JSON
  kOversizedFrame,   ///< frame exceeded kMaxFrameBytes (connection-fatal)
  kVersionMismatch,  ///< hello version != kProtocolVersion (connection-fatal)
  kHelloRequired,    ///< op before the handshake
  kUnknownOp,
  kUnknownSession,
  kSessionClosed,    ///< session cancelled while the op was blocked
  kSessionEvicted,   ///< session reaped by the idle-eviction policy; the
                     ///< loss is fatal for this session but the daemon is
                     ///< healthy (distinguishable from kUnknownSession)
  kAskPending,       ///< ask while a proposal is already outstanding
  kNoAskOutstanding, ///< tell with nothing to answer
  // Kept for wire compatibility: older daemons emit it and error_code_from
  // must keep parsing it; nothing current emits it (admission control
  // answers kRetryLater instead).
  // NOLINTNEXTLINE(svclint-wire-drift)
  kSessionLimit,     ///< max concurrent sessions reached (legacy; admission
                     ///< control now answers kRetryLater)
  kRetryLater,       ///< admission control pushback; the error frame carries
                     ///< retry_after_ms and the request is safe to retry
  kDeadlineExceeded, ///< the request's deadline_ms expired before the
                     ///< blocking op completed; session state is untouched
  kDraining,         ///< server is shutting down, no new sessions
  kWrongRole,        ///< op sent to a daemon role (or a router) the op table
                     ///< says does not serve it; the peer should re-resolve
                     ///< which endpoint currently holds the role it wants
  kInternal,         ///< search thread died, or a journal did not replay
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;
/// Inverse of to_string; nullopt for unknown identifiers.
[[nodiscard]] std::optional<ErrorCode> error_code_from(std::string_view text) noexcept;

/// Carries a typed protocol error through server dispatch; the handler turns
/// it into an {"ok":false,...} response frame.
struct ProtocolError : std::runtime_error {
  ErrorCode code;
  /// Backoff hint; nonzero only with kRetryLater (rides the error frame as
  /// "retry_after_ms").
  std::uint64_t retry_after_ms = 0;
  ProtocolError(ErrorCode code_in, const std::string& message,
                std::uint64_t retry_after = 0)
      : std::runtime_error(message), code(code_in), retry_after_ms(retry_after) {}
};

// ---------------------------------------------------------------------------
// Op table: the wire surface, one row per op (protocol.cpp)
// ---------------------------------------------------------------------------

/// Every op of the protocol, in op-table row order.
enum class Op : std::uint8_t {
  kHello, kPing, kStatus,                        // handshake and health
  kOpen, kAsk, kTell, kResult, kClose,           // sessions
  kStoreStats, kStoreExport, kStoreImport,       // results store
  kShipOpen, kShipTell, kShipClose, kShipEvict,  // replication records
  kPromote, kReseed,                             // failover and re-seeding
};
inline constexpr std::size_t kOpCount = 17;
static_assert(static_cast<std::size_t>(Op::kReseed) + 1 == kOpCount,
              "kOpCount counts every Op");

/// The daemon role that serves an op; the other role answers wrong_role.
enum class OpRole : std::uint8_t { kAny, kPrimary, kStandby };

/// What tunelb does with an op.
enum class OpRoute : std::uint8_t {
  kLocal,      ///< answers it itself
  kPlace,      ///< places it on a shard by consistent hashing
  kBySession,  ///< forwards it to the shard its "<shard>:<sid>" id names
  kFanOut,     ///< sends it to every shard primary and merges the replies
  kRefuse,     ///< answers wrong_role: shard-to-shard and prober-driven ops
};

/// When tunelb may replay an op on a shard's new endpoint after a failover.
enum class OpReplay : std::uint8_t {
  kAlways,      ///< idempotent as sent
  kWithToken,   ///< only when it carries an idempotency "token"
  kWithResume,  ///< only with "resume":true
  kWithSeq,     ///< only with a nonzero "seq"
};

struct OpInfo {
  Op op;
  std::string_view name;  ///< the wire "op" value
  OpRole role;
  OpRoute route;
  OpReplay replay;
};

[[nodiscard]] const OpInfo& op_info(Op op) noexcept;
/// The op a wire name denotes; nullopt for a name outside the table.
[[nodiscard]] std::optional<Op> op_from(std::string_view name) noexcept;
/// True when `request`, an op of `info`, is safe to replay after a failover
/// (throws ProtocolError{kBadRequest} on a malformed "seq").
[[nodiscard]] bool replay_safe(const OpInfo& info, const Json& request);

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// kMidFrameEof is kClosed with bytes of an unterminated frame already
/// buffered: the peer died (or the stream was torn) mid-frame. The partial
/// frame is dropped either way, but clients surface the distinction as a
/// typed transport error.
enum class FrameStatus { kOk, kClosed, kMidFrameEof, kTimeout, kOversized, kError };

/// Buffered newline-delimited frame reader over one byte stream. kTimeout
/// (from the stream's read timeout, or after a read that grew the buffer
/// without completing a frame) retains the partial frame, so callers can
/// poll a stop flag or a slow-peer deadline and resume; at most one stream
/// read happens per next() call.
class FrameReader {
 public:
  explicit FrameReader(ByteIo& stream, std::size_t max_frame = kMaxFrameBytes)
      : stream_(stream), max_frame_(max_frame) {}

  /// Read the next frame into `line` (without the trailing '\n').
  [[nodiscard]] FrameStatus next(std::string* line);

 private:
  ByteIo& stream_;
  std::size_t max_frame_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< prefix of buffer_ already known '\n'-free
};

/// Serialize `message` and send it as one frame.
[[nodiscard]] bool write_frame(ByteIo& stream, const Json& message);

/// {"op":<the op's wire name>}, a request to fill in.
[[nodiscard]] Json op_frame(Op op);
/// The handshake request: {"op":"hello","version":1,"client":<client>}
/// plus "tenant" when one is given.
[[nodiscard]] Json hello_frame(const std::string& client, const std::string& tenant = {});
/// True for an {"ok":true,...} reply.
[[nodiscard]] bool is_ok(const Json& reply);

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

/// Connect to host:port (loopback fast path for 127.0.0.1). Throws
/// std::runtime_error when nothing accepts.
[[nodiscard]] Socket dial(const std::string& host, std::uint16_t port);

/// Parse "host:port" or a bare loopback port. The port must be plain
/// decimal in 1..65535; a bare port leaves `*host` untouched. False on
/// anything else, with both outputs untouched.
[[nodiscard]] bool parse_endpoint(std::string_view text, std::string* host,
                                  std::uint16_t* port);


// ---------------------------------------------------------------------------
// Field access helpers (throw ProtocolError{kBadRequest} on mismatch)
// ---------------------------------------------------------------------------

[[nodiscard]] const Json& require(const Json& object, std::string_view key);
[[nodiscard]] std::string require_string(const Json& object, std::string_view key);
[[nodiscard]] std::uint64_t require_uint(const Json& object, std::string_view key);
[[nodiscard]] bool require_bool(const Json& object, std::string_view key);

/// Optional non-negative integer field; nullopt when absent, kBadRequest
/// when present with the wrong type. Used for deadline_ms and seq.
[[nodiscard]] std::optional<std::uint64_t> optional_uint(const Json& object,
                                                         std::string_view key);

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------

/// Parameters of an `open` request. The search space defaults to the
/// paper's 6-parameter space; a custom space can be sent inline as
/// {"space":{"params":[{"name":...,"lo":...,"hi":...},...],
///           "constraint":"none"|"wg256"}}.
struct OpenParams {
  std::string algorithm = "rs";
  std::size_t budget = 100;
  std::uint64_t seed = 1;
  tuner::RetryPolicy retry;
  bool custom_space = false;
  std::vector<tuner::ParamRange> params;
  std::string constraint = "none";  ///< "none" or "wg256" (paper constraint)

  // Results-store tenancy (all optional; absent fields keep the frame —
  // and therefore existing WAL/ship byte streams — unchanged). benchmark +
  // arch identify the tenant whose history the session's tells feed; when
  // warm_start is set the daemon snapshots compatible prior history into
  // `prior` exactly once at open time. The snapshot rides the WAL open
  // record and ship_open, so recovery and replica replay reuse it verbatim
  // instead of re-deriving it from a store that has since moved on —
  // replayed proposals stay byte-identical.
  std::string benchmark;  ///< tenant kernel name ("" = anonymous, no store)
  std::string arch;       ///< tenant architecture name
  bool warm_start = false;
  tuner::PriorHandle prior;  ///< server-filled prior snapshot

  /// Quota identity (optional, distinct from store tenancy): the client
  /// identity from the hello, stamped into the open by the server so
  /// per-tenant quotas survive reconnects, recovery, and replica replay
  /// (the field rides the WAL open record and ship_open). "" = anonymous —
  /// admitted while capacity lasts, shed first under overload.
  std::string tenant;

  /// Materialize the requested space (paper space unless custom).
  [[nodiscard]] tuner::ParamSpace make_space() const;
};

/// Canonical store fingerprint of the space an open request resolves to
/// (store/fingerprint.hpp; the paper space fingerprints its own params with
/// constraint "wg256").
[[nodiscard]] std::string space_fingerprint_of(const OpenParams& params);

[[nodiscard]] Json encode_open(const OpenParams& params);
[[nodiscard]] OpenParams decode_open(const Json& request);

[[nodiscard]] Json encode_config(const tuner::Configuration& config);
[[nodiscard]] tuner::Configuration decode_config(const Json& array);

/// Evaluation <-> tell payload fields (value/valid/status). A NaN value
/// crosses the wire as null.
void encode_evaluation_into(Json& object, const tuner::Evaluation& eval);
[[nodiscard]] tuner::Evaluation decode_evaluation(const Json& object);

[[nodiscard]] Json encode_tune_result(const tuner::TuneResult& result,
                                      const tuner::FailureCounters& counters);
void decode_tune_result(const Json& object, tuner::TuneResult* result,
                        tuner::FailureCounters* counters);

[[nodiscard]] Json encode_counters(const tuner::FailureCounters& counters);
[[nodiscard]] tuner::FailureCounters decode_counters(const Json& object);

/// Results-store export payload <-> wire form. One tenant is
/// {"benchmark":...,"arch":...,"space":"<fingerprint>",
///  "rows":[{"c":[<ints>],"v":<us|null>,"ok":<bool>},...]}
/// (the same row shape the store's on-disk log uses). Used by the
/// store_export / store_import ops.
[[nodiscard]] Json encode_tenants(const std::vector<store::TenantSnapshot>& tenants);
[[nodiscard]] std::vector<store::TenantSnapshot> decode_tenants(const Json& array);

[[nodiscard]] std::optional<tuner::EvalStatus> eval_status_from(std::string_view text) noexcept;

// ---------------------------------------------------------------------------
// Response helpers
// ---------------------------------------------------------------------------

[[nodiscard]] Json make_ok();
[[nodiscard]] Json make_error(ErrorCode code, const std::string& message);
/// RETRY_LATER pushback frame: make_error(kRetryLater, ...) plus the
/// machine-readable retry_after_ms hint.
[[nodiscard]] Json make_retry_later(const std::string& message,
                                    std::uint64_t retry_after_ms);

}  // namespace repro::service
