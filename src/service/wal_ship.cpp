#include "service/wal_ship.hpp"

#include <utility>
#include <vector>

#include "common/log.hpp"
#include "service/session_wal.hpp"
#include "service/status_codec.hpp"

namespace repro::service {

namespace {

/// A ship_* record naming session `id`.
Json ship_frame(Op op, const std::string& id) {
  Json request = op_frame(op);
  request.set("session", id);
  return request;
}

Json ship_open_frame(const std::string& id, const std::string& token,
                     const OpenParams& params) {
  Json request = ship_frame(Op::kShipOpen, id);
  if (!token.empty()) request.set("token", token);
  request.set("open", encode_open(params));
  return request;
}

Json ship_tell_frame(const std::string& id, std::uint64_t seq,
                     const tuner::Configuration& config,
                     const tuner::Evaluation& evaluation) {
  Json request = ship_frame(Op::kShipTell, id);
  request.set("seq", seq);
  request.set("config", encode_config(config));
  encode_evaluation_into(request, evaluation);
  return request;
}

Json store_import_frame(const std::vector<store::TenantSnapshot>& tenants) {
  Json request = op_frame(Op::kStoreImport);
  request.set("tenants", encode_tenants(tenants));
  return request;
}

}  // namespace

const char* to_string(ShipState state) noexcept {
  switch (state) {
    case ShipState::kDisabled: return "disabled";
    case ShipState::kDown: return "down";
    case ShipState::kCatchingUp: return "catching_up";
    case ShipState::kHot: return "hot";
    case ShipState::kFenced: return "fenced";
  }
  return "?";
}

WalShipper::WalShipper(ShipConfig config,
                       std::shared_ptr<store::ResultsStore> store)
    : config_(std::move(config)), store_(std::move(store)) {
  state_.store(config_.port == 0 ? ShipState::kDisabled : ShipState::kDown,
               std::memory_order_release);
  const auto interval = config_.reconnect_interval;
  redial_thread_ = std::thread([this, interval] {  // NOLINT(reprolint-raw-thread)
    // Redial cadence; never feeds tuning results.
    while (true) {
      {
        std::unique_lock<std::mutex> lock(redial_mutex_);
        redial_cv_.wait_for(lock, interval, [this] { return stopping_; });
        if (stopping_) return;
      }
      redial_loop();
    }
  });
}

WalShipper::~WalShipper() {
  {
    std::unique_lock<std::mutex> lock(redial_mutex_);
    stopping_ = true;
  }
  redial_cv_.notify_all();
  if (redial_thread_.joinable()) redial_thread_.join();
}

void WalShipper::redial_loop() {
  repro::MutexLock lock(mutex_);
  if (link_ != nullptr || fenced_ || config_.port == 0 || !attempted_) return;
  // The backoff check inside ensure_link paces actual connect() calls; the
  // thread just guarantees *someone* keeps dialing while no client traffic
  // flows (a re-seeding follower must catch up on its own).
  ensure_link(/*ignore_backoff=*/false);
}

bool WalShipper::connected() const {
  repro::MutexLock lock(mutex_);
  return link_ != nullptr && !fenced_;
}

bool WalShipper::fenced() const {
  repro::MutexLock lock(mutex_);
  return fenced_;
}

bool WalShipper::enabled() const {
  repro::MutexLock lock(mutex_);
  return config_.port != 0;
}

ShipCounters WalShipper::counters() const {
  repro::MutexLock lock(mutex_);
  return counters_;
}

std::pair<std::string, std::uint16_t> WalShipper::target() const {
  repro::MutexLock lock(mutex_);
  return {config_.host, config_.port};
}

void WalShipper::retarget(const std::string& host, std::uint16_t port) {
  repro::MutexLock lock(mutex_);
  link_.reset();
  fenced_ = false;
  attempted_ = false;
  config_.host = host;
  config_.port = port;
  ++counters_.retargets;
  state_.store(port == 0 ? ShipState::kDisabled : ShipState::kDown,
               std::memory_order_release);
  if (port != 0) {
    log_info("wal_ship: retargeted to follower {}:{} (re-seed pending)", host,
             port);
  } else {
    log_info("wal_ship: shipping disabled (retargeted to port 0)");
  }
}

bool WalShipper::connect_now() {
  repro::MutexLock lock(mutex_);
  return ensure_link(/*ignore_backoff=*/true) && !fenced_;
}

bool WalShipper::ensure_link(bool ignore_backoff) {
  if (fenced_ || config_.port == 0) return false;
  if (link_ != nullptr) return true;
  // Reconnect pacing; never feeds tuning results.
  const auto now = std::chrono::steady_clock::now();
  if (!ignore_backoff && attempted_ && now - last_attempt_ < config_.reconnect_interval)
    return false;
  attempted_ = true;
  last_attempt_ = now;

  std::unique_ptr<RpcLink> link;
  try {
    // Bounded writes: a follower that stops draining cannot park us.
    link = std::make_unique<RpcLink>(config_.host, config_.port, config_.rpc_timeout);
  } catch (const std::exception& error) {
    log_debug("wal_ship: connect to {}:{} failed: {}", config_.host, config_.port,
              error.what());
    return false;
  }
  // RPC deadline; never feeds tuning results.
  const std::optional<Json> reply =
      link->hello(config_.name, std::chrono::steady_clock::now() + config_.rpc_timeout);
  if (!reply) {
    log_warn("wal_ship: handshake with {}:{} failed", config_.host, config_.port);
    return false;
  }
  // A follower that advertises itself as a primary was promoted (or was
  // never a standby): fence before shipping a single record. This closes
  // the no-journals gap — a deposed primary with an empty state dir would
  // otherwise never see a wrong_role answer.
  const Json* role = reply->find("role");
  if (role != nullptr && role->is_string() && role->as_string() == "primary") {
    fenced_ = true;
    state_.store(ShipState::kFenced, std::memory_order_release);
    log_error("wal_ship: target {}:{} advertises role primary — fenced (this "
              "primary is stale)",
              config_.host, config_.port);
    return false;
  }
  link_ = std::move(link);
  if (ever_connected_) ++counters_.reconnects;
  ever_connected_ = true;
  state_.store(ShipState::kCatchingUp, std::memory_order_release);
  log_info("wal_ship: connected to follower {}:{} (catching up)", config_.host,
           config_.port);
  // Every fresh link starts with a resync: sessions opened or told while
  // the link was down (or before the follower first came up) must reach
  // the follower before any new record does, or per-session seq order
  // breaks. Duplicates are acked idempotently, so over-shipping is safe.
  if (!resync()) {
    link_.reset();
    if (!fenced_) state_.store(ShipState::kDown, std::memory_order_release);
    return false;
  }
  state_.store(ShipState::kHot, std::memory_order_release);
  return true;
}

std::optional<Json> WalShipper::call(const Json& request) {
  if (link_ == nullptr) return std::nullopt;
  // RPC deadline; never feeds tuning results.
  std::optional<Json> reply =
      link_->call(request, std::chrono::steady_clock::now() + config_.rpc_timeout);
  if (!reply) {
    ++counters_.failures;
    link_.reset();
    state_.store(ShipState::kDown, std::memory_order_release);
    // The backoff paces consecutive failed connects, not the first retry
    // after a working link drops: a follower that bounced (restart on the
    // same port) should be re-dialed by the very next ship.
    attempted_ = false;
    log_warn("wal_ship: link to {}:{} lost (RPC failed or timed out); shard is "
             "degraded until resync",
             config_.host, config_.port);
    return std::nullopt;
  }
  if (!is_ok(*reply)) {
    const Json* code = reply->find("error");
    const std::string text = code != nullptr && code->is_string() ? code->as_string() : "?";
    if (error_code_from(text) == ErrorCode::kWrongRole) {
      // The follower was promoted: this process is a stale primary. Stop
      // shipping until a retarget() re-seeds us at a legitimate follower —
      // replicating into the new primary would corrupt it.
      fenced_ = true;
      link_.reset();
      state_.store(ShipState::kFenced, std::memory_order_release);
      log_error("wal_ship: follower {}:{} reports wrong_role — fenced (this "
                "primary is stale)",
                config_.host, config_.port);
      return std::nullopt;
    }
  }
  return reply;
}

bool WalShipper::resync() {
  if (config_.state_dir.empty()) return true;
  std::vector<std::string> paths;
  try {
    paths = list_session_wals(config_.state_dir);
  } catch (const std::exception& error) {
    log_warn("wal_ship: resync cannot list {}: {}", config_.state_dir, error.what());
    return false;
  }
  ++counters_.resyncs;
  // Snapshot before journals: the digest chains each tenant's rows in
  // insertion order, so a fresh follower must receive the store exactly as
  // the primary holds it. Journal-derived rows then dedup into positions
  // the snapshot already fixed; shipping journals first would put
  // tell-derived rows ahead of older seed-import rows and the digests
  // could never meet.
  if (!resync_store()) return false;
  std::size_t sessions = 0;
  for (const std::string& path : paths) {
    WalSession journal;
    try {
      journal = load_session_wal(path);
    } catch (const std::exception&) {
      continue;  // unrecoverable journal: recovery already dropped it
    }
    if (journal.closed) continue;  // about to be unlinked; nothing to replicate
    if (!reship(ship_open_frame(journal.id, journal.token, journal.open))) return false;
    for (const WalTell& tell : journal.tells) {
      if (!reship(ship_tell_frame(journal.id, tell.seq, tell.config, tell.evaluation)))
        return false;
    }
    if (journal.evicted && !reship(ship_frame(Op::kShipEvict, journal.id))) return false;
    ++sessions;
  }
  if (!store_digest_gate()) return false;
  log_info("wal_ship: resynced {} journaled session(s) to {}:{} — follower is "
           "hot",
           sessions, config_.host, config_.port);
  return true;
}

bool WalShipper::reship(const Json& record) {
  const std::optional<Json> reply = call(record);
  if (!reply || !is_ok(*reply)) return false;
  ++counters_.records_shipped;
  if (reply->find("duplicate") != nullptr) ++counters_.duplicates_acked;
  return true;
}

bool WalShipper::resync_store() {
  if (store_ == nullptr) return true;
  // Ship the snapshot page by page. Rows the follower already derived from
  // shipped tells dedup server-side, so over-shipping is safe; rows only the
  // store holds (seed imports, history from evicted sessions) are exactly
  // what a re-seeded follower is missing.
  std::size_t rows = 0;
  std::string cursor_tenant;
  std::size_t cursor_row = 0;
  while (true) {
    const store::ResultsStore::ExportPage page = store_->export_page(
        "", "", config_.store_page_rows, cursor_tenant, cursor_row);
    std::size_t page_rows = 0;
    for (const store::TenantSnapshot& tenant : page.tenants) {
      page_rows += tenant.rows.size();
    }
    if (page_rows != 0) {
      const std::optional<Json> reply = call(store_import_frame(page.tenants));
      if (!reply || !is_ok(*reply)) {
        log_warn("wal_ship: store snapshot page refused by {}:{}", config_.host,
                 config_.port);
        return false;
      }
      rows += page_rows;
    }
    if (!page.more) break;
    cursor_tenant = page.next_tenant_flat;
    cursor_row = page.next_row;
  }
  counters_.store_rows_resynced += rows;
  return true;
}

bool WalShipper::store_digest_gate() {
  if (store_ == nullptr) return true;
  // The follower flips hot only when its store is byte-equivalent to ours
  // — same rows, same per-tenant insertion order. Runs after the journal
  // re-ship so tell-derived rows are already on both sides.
  const std::optional<Json> reply = call(op_frame(Op::kStoreStats));
  if (!reply || !is_ok(*reply)) return false;
  const store::StoreStats theirs = decode_report<store::StoreStats>(*reply);
  if (!theirs.enabled) {
    // Journal-only follower: nothing to gate on (it cannot diverge on a
    // store it does not have). Promotion from it loses store history — the
    // operator chose that by running it storeless.
    log_warn("wal_ship: follower {}:{} has no results store; digest gate "
             "skipped",
             config_.host, config_.port);
    return true;
  }
  const std::uint64_t ours = store_->digest();
  if (theirs.digest != ours) {
    // A concurrent tell may have reached our store after the snapshot page
    // that covered its tenant; the retry's resync re-ships and converges.
    // A *persistent* mismatch means real divergence (or mismatched store
    // capacities) and the follower must never flip hot.
    log_warn("wal_ship: store digest mismatch with {}:{} (ours {}, theirs "
             "{}); follower stays catching up",
             config_.host, config_.port, ours, theirs.digest);
    return false;
  }
  return true;
}

bool WalShipper::ship(const Json& request) {
  // Disabled shippers (port 0 — a durable daemon with no follower) sit on
  // every tell path; skip the mutex entirely.
  if (state() == ShipState::kDisabled) return false;
  repro::MutexLock lock(mutex_);
  if (!ensure_link(/*ignore_backoff=*/false)) return false;
  std::optional<Json> reply = call(request);
  if (!reply && !fenced_) {
    // The link died under this record — usually a follower that bounced
    // and is already listening again. One immediate redial; the fresh
    // link's resync re-ships the journal (this record included, it was
    // journaled before shipping), then the retry collects its ack.
    if (ensure_link(/*ignore_backoff=*/true)) reply = call(request);
  }
  if (reply && !is_ok(*reply)) {
    const Json* code = reply->find("error");
    const std::string text =
        code != nullptr && code->is_string() ? code->as_string() : "?";
    if (error_code_from(text) == ErrorCode::kUnknownSession) {
      // The follower restarted and lost this session (torn journal header,
      // wiped state dir). Re-ship everything once, then retry this record.
      if (resync()) reply = call(request);
    }
  }
  if (!reply) return false;
  if (!is_ok(*reply)) {
    ++counters_.failures;
    const Json* message = reply->find("message");
    log_warn("wal_ship: follower refused record: {}",
             message != nullptr && message->is_string() ? message->as_string()
                                                        : reply->dump());
    return false;
  }
  ++counters_.records_shipped;
  if (reply->find("duplicate") != nullptr) ++counters_.duplicates_acked;
  return true;
}

bool WalShipper::ship_open(const std::string& id, const std::string& token,
                           const OpenParams& params) {
  return ship(ship_open_frame(id, token, params));
}

bool WalShipper::ship_tell(const std::string& id, std::uint64_t seq,
                           const tuner::Configuration& config,
                           const tuner::Evaluation& evaluation) {
  return ship(ship_tell_frame(id, seq, config, evaluation));
}

bool WalShipper::ship_close(const std::string& id) {
  return ship(ship_frame(Op::kShipClose, id));
}

bool WalShipper::ship_evict(const std::string& id) {
  return ship(ship_frame(Op::kShipEvict, id));
}

bool WalShipper::ship_store_import(const std::vector<store::TenantSnapshot>& tenants) {
  return ship(store_import_frame(tenants));
}

}  // namespace repro::service
