#include "service/client.hpp"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/rng.hpp"

namespace repro::service {

ByteIo& Client::stream() noexcept {
  if (chaos_ != nullptr) return *chaos_;
  return socket_;
}

void Client::connect() {
  if (connected_) return;
  // Candidate order is deterministic: the endpoint list front-to-back (or
  // the single host/port). The first endpoint to both accept and complete
  // the hello handshake wins; a handshake-time transport failure moves on
  // to the next candidate, a typed refusal (e.g. version_mismatch) is the
  // server's verdict and propagates.
  std::vector<ClientConfig::Endpoint> candidates = config_.endpoints;
  if (candidates.empty()) candidates.push_back({config_.host, config_.port});
  std::string failures;
  for (std::size_t index = 0; index < candidates.size(); ++index) {
    const ClientConfig::Endpoint& endpoint = candidates[index];
    try {
      connect_one(endpoint.host, endpoint.port);
      endpoint_index_ = index;
      return;
    } catch (const ClientError& error) {
      if (!failures.empty()) failures += "; ";
      failures += error.what();
    }
  }
  throw ClientError(ClientError::Kind::kConnect,
                    "no endpoint reachable: " + failures);
}

void Client::connect_one(const std::string& host, std::uint16_t port) {
  try {
    socket_ = dial(host, port);
  } catch (const std::exception& error) {
    throw ClientError(ClientError::Kind::kConnect,
                      "connect to " + host + ":" +
                          std::to_string(port) + " failed: " + error.what());
  }
  if (config_.chaos.enabled) {
    // Fresh injector per connection: fault placement is reproducible for a
    // given (chaos_seed, connect ordinal) yet differs across reconnects,
    // so a retry does not deterministically re-hit the same fault.
    chaos_ = std::make_unique<ChaosSocket>(
        socket_, config_.chaos, seed_combine(config_.chaos_seed, connect_count_));
  }
  ++connect_count_;
  if (connect_count_ > 1) ++reconnects_;
  reader_.emplace(stream());
  connected_ = true;
  // Quota identity: the server stamps the tenant into every open on the
  // connection (a per-request field could not be trusted).
  (void)call(hello_frame(config_.name, config_.tenant));
}

void Client::disconnect() {
  if (!connected_) return;
  socket_.close();
  reader_.reset();
  chaos_.reset();
  connected_ = false;
}

ChaosCounters Client::chaos_counters() const noexcept {
  if (chaos_ == nullptr) return {};
  return chaos_->counters();
}

Json Client::call(const Json& request) {
  if (!connected_)
    throw ClientError(ClientError::Kind::kNotConnected, "client is not connected");
  if (!write_frame(stream(), request)) {
    disconnect();
    throw ClientError(ClientError::Kind::kSend,
                      "connection lost while sending request");
  }
  std::string line;
  while (true) {
    const FrameStatus status = reader_->next(&line);
    if (status == FrameStatus::kTimeout) continue;  // no read timeout set; defensive
    if (status == FrameStatus::kOk) break;
    disconnect();
    if (status == FrameStatus::kMidFrameEof) {
      throw ClientError(ClientError::Kind::kMidFrameEof,
                        "stream torn mid-frame while awaiting response");
    }
    throw ClientError(ClientError::Kind::kClosed,
                      "connection lost while awaiting response");
  }
  Json response;
  try {
    response = Json::parse(line);
  } catch (const JsonError& error) {
    disconnect();
    throw ClientError(ClientError::Kind::kMalformed,
                      std::string("malformed response frame: ") + error.what());
  }
  const bool ok = require_bool(response, "ok");
  if (!ok) {
    const std::string code_text = require_string(response, "error");
    const Json* message = response.find("message");
    const std::string text =
        message != nullptr && message->is_string() ? message->as_string() : code_text;
    const auto code = error_code_from(code_text);
    ProtocolError error(code.value_or(ErrorCode::kInternal), text);
    if (const Json* retry = response.find("retry_after_ms"))
      error.retry_after_ms = retry->as_uint64();
    throw error;
  }
  return response;
}

void Client::backoff_sleep(std::size_t attempt, std::uint64_t floor_ms) {
  const double scaled = static_cast<double>(config_.backoff_initial_ms) *
                        std::pow(config_.backoff_multiplier,
                                 static_cast<double>(attempt));
  std::uint64_t delay_ms =
      scaled >= static_cast<double>(config_.backoff_max_ms)
          ? config_.backoff_max_ms
          : static_cast<std::uint64_t>(scaled);
  if (delay_ms < floor_ms) delay_ms = floor_ms;
  if (delay_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
}

Json Client::call_resilient(const Json& request) {
  const std::optional<Op> op = op_from(require_string(request, "op"));
  const bool idempotent = op && replay_safe(op_info(*op), request);
  std::size_t attempt = 0;
  while (true) {
    try {
      if (!connected_) connect();
      return call(request);
    } catch (const ClientError&) {
      if (!idempotent || attempt >= config_.max_retries) throw;
      ++retries_;
      backoff_sleep(attempt++, 0);
      // Reconnect happens at the top of the loop.
    } catch (const ProtocolError& error) {
      // Admission pushback: the request was *not* performed, so replaying
      // it is safe regardless of idempotency. Honor the server's hint but
      // never back off less than the schedule says.
      if (error.code != ErrorCode::kRetryLater || attempt >= config_.max_retries)
        throw;
      ++retries_;
      backoff_sleep(attempt++, error.retry_after_ms);
    }
  }
}

std::string Client::open(const OpenParams& params, const std::string& token) {
  Json request = encode_open(params);
  if (!token.empty()) request.set("token", token);
  // Without a token a replayed open could create a twin session, so only
  // tokened opens retry transport failures (RETRY_LATER retries either way
  // inside call_resilient).
  const std::string id = require_string(call_resilient(request), "session");
  next_seq_.emplace(id, 1);
  return id;
}

std::optional<tuner::Configuration> Client::ask(const std::string& session) {
  Json request = op_frame(Op::kAsk);
  request.set("session", session);
  // resume:true makes a replayed ask (after a lost response) re-fetch the
  // outstanding proposal instead of failing with ask_pending.
  request.set("resume", true);
  if (config_.heartbeat_ms > 0)
    request.set("deadline_ms", config_.heartbeat_ms);
  while (true) {
    try {
      const Json response = call_resilient(request);
      if (require_bool(response, "done")) return std::nullopt;
      return decode_config(require(response, "config"));
    } catch (const ProtocolError& error) {
      // Heartbeat cycle: the deadline bounds each exchange, not the op —
      // re-issue until the search thread produces the proposal.
      if (error.code != ErrorCode::kDeadlineExceeded || config_.heartbeat_ms == 0)
        throw;
    }
  }
}

std::size_t Client::tell(const std::string& session,
                         const tuner::Evaluation& evaluation) {
  Json request = op_frame(Op::kTell);
  request.set("session", session);
  encode_evaluation_into(request, evaluation);
  const auto seq_it = next_seq_.find(session);
  if (seq_it != next_seq_.end()) request.set("seq", seq_it->second);
  const Json response = call_resilient(request);
  if (seq_it != next_seq_.end()) ++seq_it->second;
  return static_cast<std::size_t>(require_uint(response, "remaining"));
}

Client::RemoteResult Client::result(const std::string& session) {
  Json request = op_frame(Op::kResult);
  request.set("session", session);
  if (config_.heartbeat_ms > 0)
    request.set("deadline_ms", config_.heartbeat_ms);
  while (true) {
    try {
      const Json response = call_resilient(request);
      RemoteResult out;
      decode_tune_result(require(response, "result"), &out.result, &out.counters);
      return out;
    } catch (const ProtocolError& error) {
      if (error.code != ErrorCode::kDeadlineExceeded || config_.heartbeat_ms == 0)
        throw;
    }
  }
}

void Client::close_session(const std::string& session) {
  Json request = op_frame(Op::kClose);
  request.set("session", session);
  try {
    (void)call_resilient(request);
  } catch (const ProtocolError& error) {
    // A replayed close whose first delivery succeeded answers
    // unknown_session; with retries enabled that is a success, not an
    // error. Without retries, surface everything (legacy behavior).
    if (config_.max_retries == 0 || error.code != ErrorCode::kUnknownSession)
      throw;
  }
  next_seq_.erase(session);
}

Json Client::status() {
  return call_resilient(op_frame(Op::kStatus));
}

void Client::ping() {
  (void)call_resilient(op_frame(Op::kPing));
}

Json Client::store_stats() {
  return call_resilient(op_frame(Op::kStoreStats));
}

Client::ExportPage Client::store_export_page(const std::string& benchmark,
                                             const std::string& arch,
                                             std::size_t limit,
                                             const std::string& cursor) {
  Json request = op_frame(Op::kStoreExport);
  if (!benchmark.empty()) request.set("benchmark", benchmark);
  if (!arch.empty()) request.set("arch", arch);
  if (limit > 0) request.set("limit", static_cast<std::uint64_t>(limit));
  if (!cursor.empty()) request.set("cursor", cursor);
  const Json response = call_resilient(request);
  ExportPage page;
  page.tenants = decode_tenants(require(response, "tenants"));
  if (const Json* flag = response.find("truncated");
      flag != nullptr && flag->is_bool()) {
    page.truncated = flag->as_bool();
  }
  if (const Json* next = response.find("next_cursor");
      next != nullptr && next->is_string()) {
    page.next_cursor = next->as_string();
  }
  return page;
}

std::vector<store::TenantSnapshot> Client::store_export(const std::string& benchmark,
                                                        const std::string& arch,
                                                        std::size_t limit) {
  if (limit > 0) return store_export_page(benchmark, arch, limit).tenants;
  // Full export: follow next_cursor across pages. A tenant cut at a page
  // boundary arrives as adjacent slices with the same key — splice them
  // back into one snapshot so callers see the pre-paging shape.
  std::vector<store::TenantSnapshot> out;
  std::string cursor;
  while (true) {
    ExportPage page = store_export_page(benchmark, arch, 0, cursor);
    for (store::TenantSnapshot& tenant : page.tenants) {
      if (!out.empty() && out.back().key.flat() == tenant.key.flat()) {
        out.back().rows.insert(out.back().rows.end(), tenant.rows.begin(),
                               tenant.rows.end());
      } else {
        out.push_back(std::move(tenant));
      }
    }
    if (page.next_cursor.empty()) break;
    cursor = page.next_cursor;
  }
  return out;
}

std::size_t Client::store_import(const std::vector<store::TenantSnapshot>& tenants) {
  Json request = op_frame(Op::kStoreImport);
  request.set("tenants", encode_tenants(tenants));
  const Json response = call_resilient(request);
  return static_cast<std::size_t>(require_uint(response, "imported"));
}

Client::RemoteResult Client::remote_minimize(const OpenParams& params,
                                             const tuner::Objective& objective) {
  // Deterministic idempotency token (only when retries are on): unique per
  // open within this client, reproducible across identical runs.
  std::string token;
  if (config_.max_retries > 0) {
    token = config_.name + "#" + std::to_string(open_counter_++) + "/" +
            params.algorithm + "/" + std::to_string(params.seed);
  }
  const std::string session = open(params, token);
  try {
    while (auto config = ask(session)) {
      (void)tell(session, objective(*config));
    }
    RemoteResult out = result(session);
    close_session(session);
    return out;
  } catch (...) {
    // Best effort: do not leak the server-side session on client failure.
    try {
      close_session(session);
    } catch (...) {
    }
    throw;
  }
}

RpcLink::RpcLink(const std::string& host, std::uint16_t port,
                 std::chrono::milliseconds write_timeout)
    : socket_(dial(host, port)), reader_(socket_) {
  // Short read tick so call() can poll its deadline.
  socket_.set_read_timeout(std::chrono::milliseconds(50));
  socket_.set_write_timeout(write_timeout);
}

std::optional<Json> RpcLink::hello(const std::string& client, Clock::time_point deadline) {
  std::optional<Json> reply = call(hello_frame(client), deadline);
  if (!reply || !is_ok(*reply)) return std::nullopt;
  return reply;
}

std::optional<Json> RpcLink::call(const Json& request, Clock::time_point deadline) {
  if (!write_frame(socket_, request)) return std::nullopt;
  std::string line;
  while (true) {
    const FrameStatus status = reader_.next(&line);
    if (status == FrameStatus::kOk) break;
    // RPC deadline bookkeeping; never feeds tuning results.
    if (status == FrameStatus::kTimeout && Clock::now() < deadline) continue;
    return std::nullopt;  // deadline, closed, torn, oversized or error
  }
  try {
    return Json::parse(line);
  } catch (const JsonError&) {
    return std::nullopt;
  }
}

std::optional<Json> call_once(const std::string& host, std::uint16_t port,
                              const std::string& client, std::chrono::milliseconds timeout,
                              const Json& request) {
  const RpcLink::Clock::time_point deadline = RpcLink::Clock::now() + timeout;
  try {
    RpcLink link(host, port, timeout);
    if (!link.hello(client, deadline)) return std::nullopt;
    return link.call(request, deadline);
  } catch (const std::exception&) {
    return std::nullopt;  // nothing accepted the dial
  }
}

}  // namespace repro::service
