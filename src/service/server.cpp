#include "service/server.hpp"

#include <algorithm>
#include <charconv>
#include <thread>
#include <utility>

#include "common/log.hpp"

namespace repro::service {
namespace {

/// "deadline_ms" request field -> absolute steady-clock deadline for the
/// blocking session ops. Deadline bookkeeping; never feeds tuning results.
[[nodiscard]] std::optional<std::chrono::steady_clock::time_point> request_deadline(
    const Json& request) {
  const std::optional<std::uint64_t> ms = optional_uint(request, "deadline_ms");
  if (!ms) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(static_cast<std::int64_t>(*ms));
}

// store_export resume cursor: hex(tenant flat key) + ":" + row offset. The
// flat key embeds unit-separator bytes, so it crosses the wire hex-encoded
// and the whole cursor stays an opaque printable token to clients.

[[nodiscard]] std::string encode_export_cursor(const std::string& flat,
                                               std::size_t row) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(flat.size() * 2 + 8);
  for (const char byte : flat) {
    const auto value = static_cast<unsigned char>(byte);
    out.push_back(kHex[value >> 4]);
    out.push_back(kHex[value & 0xF]);
  }
  out.push_back(':');
  out += std::to_string(row);
  return out;
}

[[nodiscard]] bool decode_export_cursor(const std::string& text,
                                        std::string& flat, std::size_t& row) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || colon == 0 || colon % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  flat.clear();
  for (std::size_t i = 0; i < colon; i += 2) {
    const int hi = nibble(text[i]);
    const int lo = nibble(text[i + 1]);
    if (hi < 0 || lo < 0) return false;
    flat.push_back(static_cast<char>((hi << 4) | lo));
  }
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data() + colon + 1, last, row);
  return ec == std::errc{} && end == last;
}

[[nodiscard]] std::shared_ptr<store::ResultsStore> make_store(const ServerConfig& config) {
  if (config.store_dir.empty()) return nullptr;
  store::StoreOptions options;
  options.dir = config.store_dir;
  options.capacity = config.store_capacity;
  return std::make_shared<store::ResultsStore>(std::move(options));
}

}  // namespace

/// One connection's handler: every op goes to TuneServer::dispatch.
class TuneServer::Connection final : public ConnectionHandler {
 public:
  explicit Connection(TuneServer& server) : server_(server) {}
  Json handle(Op op, const Json& request, const std::string& tenant) override {
    return server_.dispatch(op, request, tenant);
  }

 private:
  TuneServer& server_;
};

TuneServer::TuneServer(ServerConfig config)
    : config_(std::move(config)),
      store_(make_store(config_)),
      manager_(std::make_unique<SessionManager>(config_.limits, store_)),
      frames_({.name = config_.name,
               .speaker = "server",
               .port = config_.port,
               .threads = config_.connection_threads,
               .poll_interval = config_.poll_interval,
               .idle_timeout = config_.connection_idle_timeout,
               .write_timeout = config_.write_timeout,
               .max_connections = config_.max_connections,
               .retry_after_ms = config_.limits.retry_after_ms,
               .role = [this] { return std::string(standby() ? "standby" : "primary"); },
               .idle_tick = [this] { idle_tick(); },
               .make_handler = [this] { return std::make_unique<Connection>(*this); }}) {
  standby_ = config_.standby;
}

TuneServer::~TuneServer() { stop(); }

void TuneServer::start() {
  {
    repro::MutexLock lock(mutex_);
    if (started_) return;
    started_ = true;
  }
  if (store_ != nullptr) {
    // The store loads before session recovery: replayed tells re-append
    // their records (dedup makes that idempotent), and recovered sessions
    // may carry journaled warm-start priors that postdate the store's tail.
    store_->load();
    const store::StoreStats stats = store_->stats();
    log_info("tuned: results store at {}: {} records across {} tenants "
             "loaded{}",
             config_.store_dir, stats.loaded_records, stats.tenants,
             stats.torn_tail ? " (torn tail dropped)" : "");
  }
  if (!config_.limits.state_dir.empty()) {
    // Recover before the first client can connect: recovered sessions must
    // be visible (and their ids reserved) before any new open lands.
    const RecoveryStats stats = manager_->recover(config_.standby);
    log_info("tuned: recovery from {}: {} sessions restored ({} tells), "
             "{} failed, {} torn tails, {} closed discarded, {} tombstoned",
             config_.limits.state_dir, stats.sessions_recovered,
             stats.tells_replayed, stats.sessions_failed, stats.torn_tails,
             stats.closed_discarded, stats.evicted_tombstones);
  }
  // Eager first ship connect (+ resync of recovered sessions) so `status`
  // reports replication health from the first probe. Failure just leaves
  // the shard degraded; the next ship attempt retries.
  manager_->connect_shipper();
  frames_.start();
  log_info("tuned: listening on 127.0.0.1:{} ({} connection workers, "
           "max {} sessions{})",
           frames_.port(), config_.connection_threads, config_.limits.max_sessions,
           config_.standby ? ", standby" : "");
}

bool TuneServer::standby() const noexcept {
  repro::MutexLock lock(mutex_);
  return standby_;
}

bool TuneServer::promote() {
  {
    repro::MutexLock lock(mutex_);
    if (!standby_) return false;  // already primary: idempotent no-op
    standby_ = false;
    ++promotions_;
  }
  log_info("tuned: promoted to primary ({} live sessions, hot)", manager_->live());
  return true;
}

void TuneServer::demote() {
  {
    repro::MutexLock lock(mutex_);
    if (standby_) return;  // already a standby: idempotent no-op
    standby_ = true;
    ++demotions_;
  }
  // Outside the lock: demote_reset cancels sessions (joins search threads)
  // and truncates the store — none of it needs the server mutex.
  const std::size_t dropped = manager_->demote_reset();
  log_info("tuned: demoted to standby ({} divergent session(s) dropped); "
           "awaiting re-seed from the new primary",
           dropped);
}

std::size_t TuneServer::demotions() const {
  repro::MutexLock lock(mutex_);
  return demotions_;
}

bool TuneServer::running() const noexcept { return frames_.running(); }

bool TuneServer::draining() const noexcept {
  repro::MutexLock lock(mutex_);
  return draining_;
}

bool TuneServer::drain(std::chrono::milliseconds deadline) {
  if (!running()) return true;
  frames_.stop_accepting();  // live connections keep running
  {
    // Flag set only after the listener is gone, so an observer of
    // draining()==true can rely on new connections being refused.
    repro::MutexLock lock(mutex_);
    draining_ = true;
  }
  log_info("tuned: draining ({} live sessions, {} connections)",
           manager_->live(), connections().active);
  // Shutdown deadline; never feeds tuning results.
  const auto stop_at = std::chrono::steady_clock::now() + deadline;  // NOLINT(reprolint-wall-clock)
  while (std::chrono::steady_clock::now() < stop_at) {  // NOLINT(reprolint-wall-clock)
    if (manager_->live() == 0 && connections().active == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return manager_->live() == 0 && connections().active == 0;
}

void TuneServer::stop() {
  // Unblock handlers parked in session ask()/result() before joining them.
  frames_.stop([this] { manager_->cancel_all(); });
}

void TuneServer::idle_tick() {
  // A standby must not run its own idle clock: its sessions only see
  // activity when records arrive, so it evicts exactly when the primary
  // ships a ship_evict record (keeping both sides' tombstones in lockstep).
  if (standby()) return;
  (void)manager_->evict_idle();
  // Deposed-primary rejoin: a fence means our follower was promoted — this
  // daemon lost a failover race and its unshipped tail is divergent. Demote
  // into a clean standby so the new primary can re-seed us, with zero
  // operator action.
  if (config_.auto_rejoin && manager_->ship_state() == ShipState::kFenced) demote();
}

Json TuneServer::dispatch(Op op, const Json& request, const std::string& quota_tenant) {
  const OpInfo& info = op_info(op);
  if (info.role == OpRole::kPrimary && standby()) {
    return make_error(ErrorCode::kWrongRole,
                      "this daemon is a hot standby; " + std::string(info.name) +
                          " belongs on the primary (or promote this one first)");
  }
  if (info.role == OpRole::kStandby && !standby()) {
    // A fenced ex-primary must never accept replication records; the
    // shipper on the other side fences itself on this answer.
    return make_error(ErrorCode::kWrongRole,
                      "this daemon is a primary; ship_* records belong on "
                      "a standby");
  }
  switch (op) {
    case Op::kHello:  // answered by the connection core, never dispatched
    case Op::kPing:
      return make_ok();
    case Op::kStatus:
      return status_reply();
    case Op::kOpen: {
      if (draining() || frames_.stopping())
        return make_error(ErrorCode::kDraining, "server is draining");
      OpenParams params = decode_open(request);
      // The server stamps the quota identity from the connection's hello —
      // unconditionally, so a request-level "tenant" field can never spoof
      // another tenant's budget. The stamped value rides the WAL open
      // record and ship_open, surviving recovery and failover.
      params.tenant = quota_tenant;
      std::string token;
      if (const Json* field = request.find("token")) token = field->as_string();
      Json response = make_ok();
      response.set("session", manager_->open(params, token));
      return response;
    }
    case Op::kAsk: {
      const std::string session = require_string(request, "session");
      bool resume = false;
      if (const Json* field = request.find("resume")) resume = field->as_bool();
      const auto config = manager_->ask(session, request_deadline(request), resume);
      Json response = make_ok();
      response.set("done", !config.has_value());
      if (config) response.set("config", encode_config(*config));
      return response;
    }
    case Op::kTell: {
      const std::string session = require_string(request, "session");
      const tuner::Evaluation evaluation = decode_evaluation(request);
      const std::uint64_t seq = optional_uint(request, "seq").value_or(0);
      const SessionManager::TellAck ack = manager_->tell(session, evaluation, seq);
      Json response = make_ok();
      response.set("remaining", static_cast<std::uint64_t>(ack.remaining));
      if (ack.duplicate) response.set("duplicate", true);
      return response;
    }
    case Op::kResult: {
      const std::string session = require_string(request, "session");
      const SessionManager::ResultPayload payload =
          manager_->result(session, request_deadline(request));
      Json response = make_ok();
      response.set("result", encode_tune_result(payload.result, payload.counters));
      return response;
    }
    case Op::kClose:
      manager_->close(require_string(request, "session"));
      return make_ok();
    case Op::kStoreStats: {
      Json response = make_ok();
      response.set("store_enabled", store_ != nullptr);
      if (store_ != nullptr) {
        const store::StoreStats stats = store_->stats();
        response.set("dir", config_.store_dir);
        response.set("records", static_cast<std::uint64_t>(stats.records));
        response.set("tenants", static_cast<std::uint64_t>(stats.tenants));
        response.set("appends", stats.appends);
        response.set("duplicates", stats.duplicates);
        response.set("rejected", stats.rejected);
        response.set("evictions", stats.evictions);
        response.set("compactions", stats.compactions);
        response.set("io_errors", stats.io_errors);
        response.set("log_records", static_cast<std::uint64_t>(stats.log_records));
        response.set("log_bytes", stats.log_bytes);
        response.set("loaded_records",
                     static_cast<std::uint64_t>(stats.loaded_records));
        response.set("torn_tail", stats.torn_tail);
        response.set("digest", store_->digest());
      }
      return response;
    }
    case Op::kStoreExport: {
      if (store_ == nullptr)
        return make_error(ErrorCode::kBadRequest, "no results store configured");
      std::string benchmark;
      std::string arch;
      if (const Json* field = request.find("benchmark")) benchmark = field->as_string();
      if (const Json* field = request.find("arch")) arch = field->as_string();
      // Row cap keeps every page inside kMaxFrameBytes (a row is ~60 wire
      // bytes); "next_cursor" in the reply resumes the export past it, so
      // stores of any size stream out page by page.
      constexpr std::uint64_t kExportRowCap = 8192;
      const std::uint64_t limit =
          std::min(optional_uint(request, "limit").value_or(kExportRowCap),
                   kExportRowCap);
      std::string start_flat;
      std::size_t start_row = 0;
      if (const Json* field = request.find("cursor")) {
        if (!field->is_string() ||
            !decode_export_cursor(field->as_string(), start_flat, start_row)) {
          return make_error(ErrorCode::kBadRequest, "malformed export cursor");
        }
      }
      const store::ResultsStore::ExportPage page = store_->export_page(
          benchmark, arch, static_cast<std::size_t>(limit), start_flat, start_row);
      std::uint64_t rows = 0;
      for (const store::TenantSnapshot& tenant : page.tenants) rows += tenant.rows.size();
      Json response = make_ok();
      response.set("tenants", encode_tenants(page.tenants));
      response.set("records", rows);
      response.set("truncated", page.more);
      if (page.more) {
        response.set("next_cursor",
                     encode_export_cursor(page.next_tenant_flat, page.next_row));
      }
      return response;
    }
    case Op::kStoreImport: {
      if (store_ == nullptr)
        return make_error(ErrorCode::kBadRequest, "no results store configured");
      const std::vector<store::TenantSnapshot> tenants =
          decode_tenants(require(request, "tenants"));
      std::size_t offered = 0;
      for (const store::TenantSnapshot& tenant : tenants) offered += tenant.rows.size();
      try {
        const std::size_t imported = store_->import_tenants(tenants);
        // Replicate the seed batch to the hot standby; redelivery is safe
        // (the standby's store dedups), so ship even when everything was a
        // local duplicate — the standby may still be missing the rows.
        manager_->ship_store_import(tenants);
        Json response = make_ok();
        response.set("imported", static_cast<std::uint64_t>(imported));
        response.set("duplicates", static_cast<std::uint64_t>(offered - imported));
        return response;
      } catch (const store::IncompatibleSpaceError& error) {
        return make_error(ErrorCode::kBadRequest, error.what());
      }
    }
    case Op::kShipOpen: {
      const std::string session = require_string(request, "session");
      const Json* open_field = request.find("open");
      if (open_field == nullptr)
        return make_error(ErrorCode::kBadRequest, "ship_open requires 'open'");
      const OpenParams params = decode_open(*open_field);
      std::string token;
      if (const Json* field = request.find("token")) token = field->as_string();
      manager_->follow_open(session, params, token);
      return make_ok();
    }
    case Op::kShipTell: {
      const std::string session = require_string(request, "session");
      const std::uint64_t seq = require_uint(request, "seq");
      const Json* config_field = request.find("config");
      if (config_field == nullptr)
        return make_error(ErrorCode::kBadRequest, "ship_tell requires 'config'");
      const tuner::Configuration config = decode_config(*config_field);
      const tuner::Evaluation evaluation = decode_evaluation(request);
      const SessionManager::TellAck ack =
          manager_->follow_tell(session, seq, config, evaluation);
      Json response = make_ok();
      response.set("remaining", static_cast<std::uint64_t>(ack.remaining));
      if (ack.duplicate) response.set("duplicate", true);
      return response;
    }
    case Op::kShipClose:
      manager_->follow_close(require_string(request, "session"));
      return make_ok();
    case Op::kShipEvict:
      manager_->follow_evict(require_string(request, "session"));
      return make_ok();
    case Op::kPromote: {
      // Idempotent: promoting a primary is a no-op ack, so a router that
      // lost the first response can safely retry. The reply distinguishes
      // the no-op ("already_primary") so a double-promote race is
      // observable without being an error.
      Json response = make_ok();
      if (!promote()) response.set("already_primary", true);
      response.set("role", "primary");
      return response;
    }
    case Op::kReseed: {
      // Router-orchestrated standby re-seeding: point this primary's
      // shipper at a replacement follower and resync it (store snapshot +
      // journals + digest gate). Primary-only (the op table's role gate): a
      // standby has nothing to ship.
      std::string host = "127.0.0.1";
      if (const Json* field = request.find("host")) host = field->as_string();
      const std::uint64_t port = require_uint(request, "port");
      if (port == 0 || port > 65535)
        return make_error(ErrorCode::kBadRequest, "reseed port out of range");
      const bool hot = manager_->reseed(host, static_cast<std::uint16_t>(port));
      Json response = make_ok();
      response.set("hot", hot);
      response.set("ship_state", to_string(manager_->ship_state()));
      return response;
    }
  }
  return make_error(ErrorCode::kInternal, "op without a handler");
}

Json TuneServer::status_reply() {
  const StatusReport report = manager_->status();
  Json response = make_ok();
  response.set("server", config_.name);
  response.set("version", static_cast<std::uint64_t>(kProtocolVersion));
  response.set("live_sessions", static_cast<std::uint64_t>(report.live_sessions));
  response.set("opened", static_cast<std::uint64_t>(report.opened));
  response.set("closed", static_cast<std::uint64_t>(report.closed));
  response.set("evicted", static_cast<std::uint64_t>(report.evicted));
  response.set("finished", static_cast<std::uint64_t>(report.finished));
  response.set("asks", static_cast<std::uint64_t>(report.asks));
  response.set("tells", static_cast<std::uint64_t>(report.tells));
  response.set("duplicate_tells",
               static_cast<std::uint64_t>(report.duplicate_tells));
  response.set("tallies", encode_counters(report.tallies));
  response.set("wal_enabled", report.wal_enabled);
  if (report.wal_enabled) {
    response.set("wal_errors", static_cast<std::uint64_t>(report.wal_errors));
    Json recovery = Json::object();
    recovery.set("sessions_recovered",
                 static_cast<std::uint64_t>(report.recovery.sessions_recovered));
    recovery.set("tells_replayed",
                 static_cast<std::uint64_t>(report.recovery.tells_replayed));
    recovery.set("sessions_failed",
                 static_cast<std::uint64_t>(report.recovery.sessions_failed));
    recovery.set("torn_tails",
                 static_cast<std::uint64_t>(report.recovery.torn_tails));
    recovery.set("closed_discarded",
                 static_cast<std::uint64_t>(report.recovery.closed_discarded));
    recovery.set("evicted_tombstones",
                 static_cast<std::uint64_t>(report.recovery.evicted_tombstones));
    response.set("recovery", std::move(recovery));
  }
  response.set("store_enabled", report.store_enabled);
  if (report.store_enabled && store_ != nullptr) {
    const store::StoreStats stats = store_->stats();
    Json store_summary = Json::object();
    store_summary.set("records", static_cast<std::uint64_t>(stats.records));
    store_summary.set("tenants", static_cast<std::uint64_t>(stats.tenants));
    store_summary.set("append_errors",
                      static_cast<std::uint64_t>(report.store_errors));
    store_summary.set("io_errors", stats.io_errors);
    response.set("store", std::move(store_summary));
  }
  response.set("ship_enabled", report.ship_enabled);
  response.set("ship_state", to_string(report.ship_state));
  if (report.ship_enabled) {
    response.set("ship_connected", report.ship_connected);
    response.set("ship_fenced", report.ship_fenced);
    if (!report.ship_target.empty())
      response.set("ship_target", report.ship_target);
    Json ship = Json::object();
    ship.set("records_shipped",
             static_cast<std::uint64_t>(report.ship.records_shipped));
    ship.set("duplicates_acked",
             static_cast<std::uint64_t>(report.ship.duplicates_acked));
    ship.set("resyncs", static_cast<std::uint64_t>(report.ship.resyncs));
    ship.set("reconnects", static_cast<std::uint64_t>(report.ship.reconnects));
    ship.set("failures", static_cast<std::uint64_t>(report.ship.failures));
    ship.set("retargets", static_cast<std::uint64_t>(report.ship.retargets));
    ship.set("store_rows_resynced",
             static_cast<std::uint64_t>(report.ship.store_rows_resynced));
    response.set("ship", std::move(ship));
  }
  {
    // Quota block: aggregate shed/pushback counters plus one row per
    // named tenant, so the router can merge fairness state cluster-wide.
    Json quotas = Json::object();
    quotas.set("enabled", report.quotas.enabled);
    quotas.set("queue_depth",
               static_cast<std::uint64_t>(report.quotas.queue_depth));
    quotas.set("queued", static_cast<std::uint64_t>(report.quotas.queued));
    quotas.set("granted", static_cast<std::uint64_t>(report.quotas.granted));
    quotas.set("timeouts",
               static_cast<std::uint64_t>(report.quotas.timeouts));
    quotas.set("shed_anonymous",
               static_cast<std::uint64_t>(report.quotas.shed_anonymous));
    quotas.set("shed_over_quota",
               static_cast<std::uint64_t>(report.quotas.shed_over_quota));
    quotas.set("shed_queue_full",
               static_cast<std::uint64_t>(report.quotas.shed_queue_full));
    quotas.set("tell_pushbacks",
               static_cast<std::uint64_t>(report.quotas.tell_pushbacks));
    Json tenants = Json::array();
    for (const StatusReport::TenantStatus& row : report.quotas.tenants) {
      Json entry = Json::object();
      entry.set("tenant", row.tenant);
      entry.set("sessions", static_cast<std::uint64_t>(row.sessions));
      entry.set("inflight_tells",
                static_cast<std::uint64_t>(row.inflight_tells));
      entry.set("queued", static_cast<std::uint64_t>(row.queued));
      tenants.push_back(std::move(entry));
    }
    quotas.set("tenants", std::move(tenants));
    response.set("quotas", std::move(quotas));
  }
  const bool stopping = frames_.stopping();
  {
    repro::MutexLock lock(mutex_);
    response.set("role", standby_ ? "standby" : "primary");
    response.set("promotions", static_cast<std::uint64_t>(promotions_));
    response.set("demotions", static_cast<std::uint64_t>(demotions_));
    response.set("draining", draining_ || stopping);
  }
  const ConnectionCounters counts = connections();
  response.set("active_connections", static_cast<std::uint64_t>(counts.active));
  response.set("connections_accepted", static_cast<std::uint64_t>(counts.accepted));
  response.set("connections_reaped", static_cast<std::uint64_t>(counts.reaped));
  response.set("connections_refused", static_cast<std::uint64_t>(counts.refused));
  Json sessions = Json::array();
  for (const SessionInfo& info : manager_->sessions()) {
    Json entry = Json::object();
    entry.set("id", info.id);
    entry.set("algorithm", info.algorithm);
    entry.set("budget", static_cast<std::uint64_t>(info.budget));
    entry.set("asks", static_cast<std::uint64_t>(info.asks));
    entry.set("tells", static_cast<std::uint64_t>(info.tells));
    entry.set("finished", info.finished);
    entry.set("idle_ms", static_cast<std::uint64_t>(info.idle.count()));
    sessions.push_back(std::move(entry));
  }
  response.set("sessions", std::move(sessions));
  return response;
}

}  // namespace repro::service
