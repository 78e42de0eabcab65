#include "service/protocol.hpp"

#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>

#include "store/fingerprint.hpp"

namespace repro::service {

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kMalformedFrame: return "malformed_frame";
    case ErrorCode::kOversizedFrame: return "oversized_frame";
    case ErrorCode::kVersionMismatch: return "version_mismatch";
    case ErrorCode::kHelloRequired: return "hello_required";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kUnknownSession: return "unknown_session";
    case ErrorCode::kSessionClosed: return "session_closed";
    case ErrorCode::kSessionEvicted: return "session_evicted";
    case ErrorCode::kAskPending: return "ask_pending";
    case ErrorCode::kNoAskOutstanding: return "no_ask_outstanding";
    case ErrorCode::kSessionLimit: return "session_limit";
    case ErrorCode::kRetryLater: return "retry_later";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kWrongRole: return "wrong_role";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

std::optional<ErrorCode> error_code_from(std::string_view text) noexcept {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kMalformedFrame, ErrorCode::kOversizedFrame,
        ErrorCode::kVersionMismatch, ErrorCode::kHelloRequired, ErrorCode::kUnknownOp,
        ErrorCode::kUnknownSession, ErrorCode::kSessionClosed,
        ErrorCode::kSessionEvicted, ErrorCode::kAskPending,
        ErrorCode::kNoAskOutstanding, ErrorCode::kSessionLimit,
        ErrorCode::kRetryLater, ErrorCode::kDeadlineExceeded, ErrorCode::kDraining,
        ErrorCode::kWrongRole, ErrorCode::kInternal}) {
    if (text == to_string(code)) return code;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Op table
// ---------------------------------------------------------------------------

namespace {

// Every store op answers on any role: a standby's store is inspectable
// (and seedable) without promoting it. promote answers on a primary too,
// as an idempotent no-op ack.
constexpr OpInfo kOps[] = {
    {Op::kHello, "hello", OpRole::kAny, OpRoute::kLocal, OpReplay::kAlways},
    {Op::kPing, "ping", OpRole::kAny, OpRoute::kLocal, OpReplay::kAlways},
    {Op::kStatus, "status", OpRole::kAny, OpRoute::kLocal, OpReplay::kAlways},
    {Op::kOpen, "open", OpRole::kPrimary, OpRoute::kPlace, OpReplay::kWithToken},
    {Op::kAsk, "ask", OpRole::kPrimary, OpRoute::kBySession, OpReplay::kWithResume},
    {Op::kTell, "tell", OpRole::kPrimary, OpRoute::kBySession, OpReplay::kWithSeq},
    {Op::kResult, "result", OpRole::kPrimary, OpRoute::kBySession, OpReplay::kAlways},
    // A replayed close answers unknown_session, which retrying clients
    // already treat as close-succeeded.
    {Op::kClose, "close", OpRole::kPrimary, OpRoute::kBySession, OpReplay::kAlways},
    {Op::kStoreStats, "store_stats", OpRole::kAny, OpRoute::kFanOut, OpReplay::kAlways},
    {Op::kStoreExport, "store_export", OpRole::kAny, OpRoute::kFanOut, OpReplay::kAlways},
    // First-value-wins dedup makes an import broadcast replay-safe.
    {Op::kStoreImport, "store_import", OpRole::kAny, OpRoute::kFanOut, OpReplay::kAlways},
    {Op::kShipOpen, "ship_open", OpRole::kStandby, OpRoute::kRefuse, OpReplay::kAlways},
    {Op::kShipTell, "ship_tell", OpRole::kStandby, OpRoute::kRefuse, OpReplay::kWithSeq},
    {Op::kShipClose, "ship_close", OpRole::kStandby, OpRoute::kRefuse, OpReplay::kAlways},
    {Op::kShipEvict, "ship_evict", OpRole::kStandby, OpRoute::kRefuse, OpReplay::kAlways},
    {Op::kPromote, "promote", OpRole::kAny, OpRoute::kRefuse, OpReplay::kAlways},
    {Op::kReseed, "reseed", OpRole::kPrimary, OpRoute::kRefuse, OpReplay::kAlways},
};
static_assert(std::size(kOps) == kOpCount, "one op-table row per Op");

constexpr bool rows_follow_the_enum() {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    if (static_cast<std::size_t>(kOps[i].op) != i) return false;
  }
  return true;
}
static_assert(rows_follow_the_enum(), "op-table rows are in Op order");

}  // namespace

const OpInfo& op_info(Op op) noexcept { return kOps[static_cast<std::size_t>(op)]; }

std::optional<Op> op_from(std::string_view name) noexcept {
  for (const OpInfo& row : kOps) {
    if (row.name == name) return row.op;
  }
  return std::nullopt;
}

bool replay_safe(const OpInfo& info, const Json& request) {
  switch (info.replay) {
    case OpReplay::kAlways: return true;
    case OpReplay::kWithToken: {
      const Json* token = request.find("token");
      return token != nullptr && token->is_string() && !token->as_string().empty();
    }
    case OpReplay::kWithResume: {
      const Json* resume = request.find("resume");
      return resume != nullptr && resume->is_bool() && resume->as_bool();
    }
    case OpReplay::kWithSeq: return optional_uint(request, "seq").value_or(0) > 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

FrameStatus FrameReader::next(std::string* line) {
  line->clear();
  // Scan only bytes not inspected on previous passes.
  const auto scan = [this, line]() -> bool {
    for (; scanned_ < buffer_.size(); ++scanned_) {
      if (buffer_[scanned_] == '\n') {
        line->assign(buffer_, 0, scanned_);
        buffer_.erase(0, scanned_ + 1);
        scanned_ = 0;
        return true;
      }
    }
    return false;
  };
  if (scan()) return FrameStatus::kOk;
  if (buffer_.size() > max_frame_) return FrameStatus::kOversized;

  char chunk[4096];
  std::size_t got = 0;
  switch (stream_.read_some(chunk, sizeof(chunk), &got)) {
    case Socket::Io::kOk: buffer_.append(chunk, got); break;
    case Socket::Io::kClosed:
      // A close mid-frame drops the partial frame, mirroring the
      // torn-final-line rule of the checkpoint format; the buffered bytes
      // distinguish a torn stream from an orderly between-frames close.
      return buffer_.empty() ? FrameStatus::kClosed : FrameStatus::kMidFrameEof;
    case Socket::Io::kTimeout: return FrameStatus::kTimeout;
    case Socket::Io::kError: return FrameStatus::kError;
  }
  if (scan()) return FrameStatus::kOk;
  if (buffer_.size() > max_frame_) return FrameStatus::kOversized;
  // Bytes arrived but no complete frame yet: yield to the caller (partial
  // frame retained, like a read timeout) instead of looping. This keeps a
  // byte-at-a-time peer from pinning the reader — the caller's poll loop
  // gets to check its stop flag and slow-peer deadline between reads.
  return FrameStatus::kTimeout;
}

bool write_frame(ByteIo& stream, const Json& message) {
  std::string text = message.dump();
  text += '\n';
  return stream.write_all(text.data(), text.size());
}

Json op_frame(Op op) {
  Json request = Json::object();
  request.set("op", op_info(op).name);
  return request;
}

Json hello_frame(const std::string& client, const std::string& tenant) {
  Json hello = op_frame(Op::kHello);
  hello.set("version", static_cast<std::uint64_t>(kProtocolVersion));
  hello.set("client", client);
  if (!tenant.empty()) hello.set("tenant", tenant);
  return hello;
}

bool is_ok(const Json& reply) {
  const Json* ok = reply.is_object() ? reply.find("ok") : nullptr;
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

Socket dial(const std::string& host, std::uint16_t port) {
  return host == "127.0.0.1" ? Socket::connect_loopback(port)
                             : Socket::connect_tcp(host, port);
}

bool parse_endpoint(std::string_view text, std::string* host, std::uint16_t* port) {
  const std::size_t colon = text.rfind(':');
  const std::string_view digits =
      colon == std::string_view::npos ? text : text.substr(colon + 1);
  std::uint16_t value = 0;
  const char* last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, value);
  if (ec != std::errc{} || end != last || value == 0) return false;
  *port = value;
  if (colon != std::string_view::npos && colon > 0) *host = std::string(text.substr(0, colon));
  return true;
}

// ---------------------------------------------------------------------------
// Field access helpers
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_request(const std::string& message) {
  throw ProtocolError(ErrorCode::kBadRequest, message);
}

}  // namespace

const Json& require(const Json& object, std::string_view key) {
  if (!object.is_object()) bad_request("request is not an object");
  const Json* field = object.find(key);
  if (field == nullptr) bad_request("missing field: " + std::string(key));
  return *field;
}

std::string require_string(const Json& object, std::string_view key) {
  const Json& field = require(object, key);
  if (!field.is_string()) bad_request("field must be a string: " + std::string(key));
  return field.as_string();
}

std::uint64_t require_uint(const Json& object, std::string_view key) {
  const Json& field = require(object, key);
  try {
    return field.as_uint64();
  } catch (const JsonError&) {
    bad_request("field must be a non-negative integer: " + std::string(key));
  }
}

bool require_bool(const Json& object, std::string_view key) {
  const Json& field = require(object, key);
  if (!field.is_bool()) bad_request("field must be a bool: " + std::string(key));
  return field.as_bool();
}

std::optional<std::uint64_t> optional_uint(const Json& object, std::string_view key) {
  if (!object.is_object()) bad_request("request is not an object");
  const Json* field = object.find(key);
  if (field == nullptr) return std::nullopt;
  try {
    return field->as_uint64();
  } catch (const JsonError&) {
    bad_request("field must be a non-negative integer: " + std::string(key));
  }
}

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------

tuner::ParamSpace OpenParams::make_space() const {
  if (!custom_space) return tuner::paper_search_space();
  tuner::ParamSpace::Constraint constraint_fn = nullptr;
  if (constraint == "wg256") {
    constraint_fn = [](const tuner::Configuration& config) {
      // Paper executability rule on the trailing three (work-group) axes.
      if (config.size() < 3) return true;
      const std::size_t n = config.size();
      return config[n - 3] * config[n - 2] * config[n - 1] <= 256;
    };
  } else if (constraint != "none") {
    bad_request("unknown constraint: " + constraint);
  }
  if (params.empty()) bad_request("custom space needs at least one parameter");
  return tuner::ParamSpace(params, std::move(constraint_fn));
}

Json encode_open(const OpenParams& params) {
  Json request = op_frame(Op::kOpen);
  request.set("algorithm", params.algorithm);
  request.set("budget", static_cast<std::uint64_t>(params.budget));
  request.set("seed", params.seed);
  if (params.retry.max_retries > 0) {
    Json retry = Json::object();
    retry.set("max_retries", static_cast<std::uint64_t>(params.retry.max_retries));
    retry.set("backoff_initial_us", params.retry.backoff_initial_us);
    retry.set("backoff_multiplier", params.retry.backoff_multiplier);
    retry.set("backoff_max_us", params.retry.backoff_max_us);
    request.set("retry", std::move(retry));
  }
  if (params.custom_space) {
    Json space = Json::object();
    Json ranges = Json::array();
    for (const tuner::ParamRange& range : params.params) {
      Json entry = Json::object();
      entry.set("name", range.name);
      entry.set("lo", static_cast<long long>(range.lo));
      entry.set("hi", static_cast<long long>(range.hi));
      ranges.push_back(std::move(entry));
    }
    space.set("params", std::move(ranges));
    space.set("constraint", params.constraint);
    request.set("space", std::move(space));
  }
  // Store-tenancy extension fields: emitted only when set, so frames (and
  // the WAL/ship records built from them) from store-less sessions stay
  // byte-identical to pre-store builds.
  if (!params.benchmark.empty()) request.set("benchmark", params.benchmark);
  if (!params.arch.empty()) request.set("arch", params.arch);
  if (params.warm_start) request.set("warm_start", true);
  if (!params.tenant.empty()) request.set("tenant", params.tenant);
  if (params.prior != nullptr && !params.prior->empty()) {
    Json rows = Json::array();
    for (const tuner::PriorObservation& row : *params.prior) {
      Json entry = Json::object();
      entry.set("c", encode_config(row.config));
      entry.set("v", row.valid && std::isfinite(row.value) ? Json(row.value)
                                                           : Json(nullptr));
      entry.set("ok", row.valid);
      rows.push_back(std::move(entry));
    }
    request.set("prior", std::move(rows));
  }
  return request;
}

OpenParams decode_open(const Json& request) {
  OpenParams params;
  params.algorithm = require_string(request, "algorithm");
  params.budget = static_cast<std::size_t>(require_uint(request, "budget"));
  if (params.budget == 0) bad_request("budget must be positive");
  params.seed = require_uint(request, "seed");
  if (const Json* retry = request.find("retry"); retry != nullptr) {
    params.retry.max_retries =
        static_cast<std::size_t>(require_uint(*retry, "max_retries"));
    if (const Json* v = retry->find("backoff_initial_us"))
      params.retry.backoff_initial_us = v->as_double();
    if (const Json* v = retry->find("backoff_multiplier"))
      params.retry.backoff_multiplier = v->as_double();
    if (const Json* v = retry->find("backoff_max_us"))
      params.retry.backoff_max_us = v->as_double();
  }
  if (const Json* space = request.find("space"); space != nullptr) {
    params.custom_space = true;
    const Json& ranges = require(*space, "params");
    if (!ranges.is_array()) bad_request("space.params must be an array");
    for (const Json& entry : ranges.as_array()) {
      tuner::ParamRange range;
      range.name = require_string(entry, "name");
      try {
        range.lo = static_cast<int>(require(entry, "lo").as_int64());
        range.hi = static_cast<int>(require(entry, "hi").as_int64());
      } catch (const JsonError&) {
        bad_request("space bounds must be integers");
      }
      if (range.hi < range.lo) bad_request("space range is empty: " + range.name);
      params.params.push_back(std::move(range));
    }
    if (const Json* constraint = space->find("constraint"))
      params.constraint = constraint->as_string();
  }
  if (const Json* benchmark = request.find("benchmark"))
    params.benchmark = benchmark->as_string();
  if (const Json* arch = request.find("arch")) params.arch = arch->as_string();
  if (const Json* warm = request.find("warm_start")) params.warm_start = warm->as_bool();
  if (const Json* tenant = request.find("tenant")) params.tenant = tenant->as_string();
  if (const Json* prior = request.find("prior"); prior != nullptr) {
    if (!prior->is_array()) bad_request("prior must be an array");
    tuner::PriorHistory rows;
    rows.reserve(prior->as_array().size());
    for (const Json& entry : prior->as_array()) {
      if (!entry.is_object()) bad_request("prior rows must be objects");
      tuner::PriorObservation row;
      row.config = decode_config(require(entry, "c"));
      if (row.config.empty()) bad_request("prior row has an empty config");
      row.valid = require_bool(entry, "ok");
      const Json* value = entry.find("v");
      if (value != nullptr && !value->is_null()) {
        row.value = value->as_double();
      } else {
        row.valid = false;  // a "valid" row without a runtime cannot seed
      }
      rows.push_back(std::move(row));
    }
    params.prior = std::make_shared<const tuner::PriorHistory>(std::move(rows));
  }
  return params;
}

std::string space_fingerprint_of(const OpenParams& params) {
  if (params.custom_space) {
    return store::space_fingerprint(params.params, params.constraint);
  }
  return store::paper_space_fingerprint();
}

Json encode_config(const tuner::Configuration& config) {
  Json array = Json::array();
  for (const int value : config) array.push_back(static_cast<long long>(value));
  return array;
}

tuner::Configuration decode_config(const Json& array) {
  if (!array.is_array()) bad_request("config must be an array of integers");
  tuner::Configuration config;
  config.reserve(array.as_array().size());
  for (const Json& value : array.as_array()) {
    try {
      config.push_back(static_cast<int>(value.as_int64()));
    } catch (const JsonError&) {
      bad_request("config must be an array of integers");
    }
  }
  return config;
}

void encode_evaluation_into(Json& object, const tuner::Evaluation& eval) {
  object.set("value", std::isfinite(eval.value) ? Json(eval.value) : Json(nullptr));
  object.set("valid", eval.valid);
  object.set("status", tuner::to_string(eval.status));
}

tuner::Evaluation decode_evaluation(const Json& object) {
  tuner::Evaluation eval;
  const Json& value = require(object, "value");
  eval.value = value.is_null() ? std::numeric_limits<double>::quiet_NaN()
                               : value.as_double();
  eval.valid = require_bool(object, "valid");
  const std::string status_text = require_string(object, "status");
  const auto status = eval_status_from(status_text);
  if (!status) bad_request("unknown evaluation status: " + status_text);
  eval.status = *status;
  return eval;
}

Json encode_counters(const tuner::FailureCounters& counters) {
  Json object = Json::object();
  object.set("ok", static_cast<std::uint64_t>(counters.ok));
  object.set("invalid", static_cast<std::uint64_t>(counters.invalid));
  object.set("transient", static_cast<std::uint64_t>(counters.transient));
  object.set("timeout", static_cast<std::uint64_t>(counters.timeout));
  object.set("crashed", static_cast<std::uint64_t>(counters.crashed));
  object.set("retries", static_cast<std::uint64_t>(counters.retries));
  object.set("retry_successes", static_cast<std::uint64_t>(counters.retry_successes));
  object.set("backoff_us", counters.backoff_us);
  return object;
}

tuner::FailureCounters decode_counters(const Json& object) {
  tuner::FailureCounters counters;
  counters.ok = static_cast<std::size_t>(require_uint(object, "ok"));
  counters.invalid = static_cast<std::size_t>(require_uint(object, "invalid"));
  counters.transient = static_cast<std::size_t>(require_uint(object, "transient"));
  counters.timeout = static_cast<std::size_t>(require_uint(object, "timeout"));
  counters.crashed = static_cast<std::size_t>(require_uint(object, "crashed"));
  counters.retries = static_cast<std::size_t>(require_uint(object, "retries"));
  counters.retry_successes =
      static_cast<std::size_t>(require_uint(object, "retry_successes"));
  counters.backoff_us = require(object, "backoff_us").as_double();
  return counters;
}

Json encode_tune_result(const tuner::TuneResult& result,
                        const tuner::FailureCounters& counters) {
  Json object = Json::object();
  object.set("found_valid", result.found_valid);
  object.set("best_config", encode_config(result.best_config));
  object.set("best_value",
             std::isfinite(result.best_value) ? Json(result.best_value) : Json(nullptr));
  object.set("evaluations_used", static_cast<std::uint64_t>(result.evaluations_used));
  object.set("counters", encode_counters(counters));
  return object;
}

void decode_tune_result(const Json& object, tuner::TuneResult* result,
                        tuner::FailureCounters* counters) {
  result->found_valid = require_bool(object, "found_valid");
  result->best_config = decode_config(require(object, "best_config"));
  const Json& best = require(object, "best_value");
  result->best_value =
      best.is_null() ? std::numeric_limits<double>::quiet_NaN() : best.as_double();
  result->evaluations_used =
      static_cast<std::size_t>(require_uint(object, "evaluations_used"));
  if (counters != nullptr) *counters = decode_counters(require(object, "counters"));
}

Json encode_tenants(const std::vector<store::TenantSnapshot>& tenants) {
  Json array = Json::array();
  for (const store::TenantSnapshot& tenant : tenants) {
    Json entry = Json::object();
    entry.set("benchmark", tenant.key.benchmark);
    entry.set("arch", tenant.key.arch);
    entry.set("space", tenant.key.fingerprint);
    Json rows = Json::array();
    for (const store::StoreRecord& row : tenant.rows) {
      Json record = Json::object();
      record.set("c", encode_config(row.config));
      record.set("v", std::isfinite(row.value) ? Json(row.value) : Json(nullptr));
      record.set("ok", row.valid);
      rows.push_back(std::move(record));
    }
    entry.set("rows", std::move(rows));
    array.push_back(std::move(entry));
  }
  return array;
}

std::vector<store::TenantSnapshot> decode_tenants(const Json& array) {
  if (!array.is_array()) bad_request("tenants must be an array");
  std::vector<store::TenantSnapshot> tenants;
  tenants.reserve(array.as_array().size());
  for (const Json& entry : array.as_array()) {
    store::TenantSnapshot tenant;
    tenant.key.benchmark = require_string(entry, "benchmark");
    tenant.key.arch = require_string(entry, "arch");
    tenant.key.fingerprint = require_string(entry, "space");
    const Json& rows = require(entry, "rows");
    if (!rows.is_array()) bad_request("tenant rows must be an array");
    tenant.rows.reserve(rows.as_array().size());
    for (const Json& record : rows.as_array()) {
      store::StoreRecord row;
      row.config = decode_config(require(record, "c"));
      if (row.config.empty()) bad_request("tenant row config must be non-empty");
      const Json* value = record.find("v");
      row.value = (value == nullptr || value->is_null())
                      ? std::numeric_limits<double>::quiet_NaN()
                      : value->as_double();
      row.valid = require_bool(record, "ok");
      tenant.rows.push_back(std::move(row));
    }
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

std::optional<tuner::EvalStatus> eval_status_from(std::string_view text) noexcept {
  for (const tuner::EvalStatus status :
       {tuner::EvalStatus::kOk, tuner::EvalStatus::kInvalid, tuner::EvalStatus::kTransient,
        tuner::EvalStatus::kTimeout, tuner::EvalStatus::kCrashed}) {
    if (text == tuner::to_string(status)) return status;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Response helpers
// ---------------------------------------------------------------------------

Json make_ok() {
  Json response = Json::object();
  response.set("ok", true);
  return response;
}

Json make_error(ErrorCode code, const std::string& message) {
  Json response = Json::object();
  response.set("ok", false);
  response.set("error", to_string(code));
  response.set("message", message);
  return response;
}

Json make_retry_later(const std::string& message, std::uint64_t retry_after_ms) {
  Json response = make_error(ErrorCode::kRetryLater, message);
  response.set("retry_after_ms", retry_after_ms);
  return response;
}

}  // namespace repro::service
