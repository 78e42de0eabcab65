#include "service/frame_server.hpp"

#include <utility>
#include <vector>

#include "common/log.hpp"

namespace repro::service {

/// The version-1 extension fields tuned and tunelb both understand (see
/// protocol.hpp); old servers simply omit the list.
constexpr const char* kFeatures[] = {"deadline_ms", "seq",     "resume", "token",
                                     "retry_later", "cluster", "store",  "quota"};

FrameServer::FrameServer(FrameServerConfig config) : config_(std::move(config)) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::start() {
  listener_ = ListenSocket::listen_loopback(config_.port);
  listener_.set_accept_timeout(config_.poll_interval);
  port_ = listener_.port();
  pool_ = std::make_unique<ThreadPool>(config_.threads);
  {
    repro::MutexLock lock(mutex_);
    started_ = true;
  }
  // Dedicated accept thread by design (see the member's comment in the header).
  accept_thread_ = std::thread([this] { accept_loop(); });  // NOLINT(reprolint-raw-thread)
}

void FrameServer::stop_accepting() { listener_.close(); }

void FrameServer::stop(const std::function<void()>& unblock) {
  std::vector<std::shared_ptr<Socket>> sockets;
  {
    repro::MutexLock lock(mutex_);
    if (!started_) return;
    stopping_ = true;
    sockets.reserve(connections_.size());
    // Shutdown broadcast: every socket gets shut down, so the unordered
    // iteration order is immaterial.
    for (auto& [id, socket] : connections_) sockets.push_back(socket);  // NOLINT(reprolint-unordered-iteration)
  }
  listener_.close();
  for (const auto& socket : sockets) socket->shutdown_both();
  if (unblock) unblock();
  if (accept_thread_.joinable()) accept_thread_.join();
  pool_.reset();  // joins connection workers
}

bool FrameServer::running() const noexcept {
  repro::MutexLock lock(mutex_);
  return started_ && !stopping_;
}

bool FrameServer::stopping() const noexcept {
  repro::MutexLock lock(mutex_);
  return stopping_;
}

ConnectionCounters FrameServer::counters() const {
  repro::MutexLock lock(mutex_);
  return {connections_.size(), accepted_, reaped_, refused_};
}

void FrameServer::accept_loop() {
  while (!stopping()) {
    Socket socket;
    const Socket::Io io = listener_.accept(&socket);
    if (io == Socket::Io::kTimeout) {
      if (config_.idle_tick) config_.idle_tick();
      continue;
    }
    if (io == Socket::Io::kClosed) return;  // stop() or stop_accepting()
    if (io == Socket::Io::kError) continue;

    auto shared = std::make_shared<Socket>(std::move(socket));
    std::uint64_t id = 0;
    bool refused = false;
    {
      repro::MutexLock lock(mutex_);
      if (stopping_) continue;  // socket closes as `shared` dies
      if (config_.max_connections > 0 &&
          connections_.size() >= config_.max_connections) {
        ++refused_;
        refused = true;
      } else {
        id = next_connection_id_++;
        connections_[id] = shared;
        ++accepted_;
      }
    }
    if (refused) {
      // Admission pushback on the accept thread: one short best-effort
      // write, then close (as `shared` dies).
      shared->set_write_timeout(config_.poll_interval);
      (void)write_frame(*shared, make_retry_later("connection limit reached",
                                                  config_.retry_after_ms));
      continue;
    }
    std::vector<std::function<void()>> task;
    task.emplace_back([this, id] {
      try {
        serve(id);
      } catch (const std::exception& error) {
        log_error("{}: connection {} handler failed: {}", config_.name, id, error.what());
      }
      repro::MutexLock lock(mutex_);
      connections_.erase(id);
    });
    pool_->submit_batch(std::move(task));
  }
}

void FrameServer::serve(std::uint64_t id) {
  std::shared_ptr<Socket> socket;
  {
    repro::MutexLock lock(mutex_);
    const auto it = connections_.find(id);
    if (it == connections_.end()) return;
    socket = it->second;
  }
  socket->set_read_timeout(config_.poll_interval);
  if (config_.write_timeout.count() > 0) socket->set_write_timeout(config_.write_timeout);
  FrameReader reader(*socket);
  Connection conn;
  conn.handler = config_.make_handler();
  std::string line;
  // Liveness deadline bookkeeping; never feeds tuning results.
  auto last_frame = std::chrono::steady_clock::now();
  while (!stopping()) {
    const FrameStatus status = reader.next(&line);
    if (status == FrameStatus::kTimeout) {
      // Slow-loris / dead-peer guard: a connection that cannot finish a
      // frame (silent or trickling bytes) is reaped; its sessions survive
      // and a reconnect resumes them (resume:true, seq idempotency).
      if (config_.idle_timeout.count() > 0 &&
          std::chrono::steady_clock::now() - last_frame > config_.idle_timeout) {
        log_info("{}: reaping connection {} (no frame in {}ms)", config_.name, id,
                 config_.idle_timeout.count());
        repro::MutexLock lock(mutex_);
        ++reaped_;
        return;
      }
      continue;
    }
    if (status == FrameStatus::kClosed || status == FrameStatus::kMidFrameEof ||
        status == FrameStatus::kError)
      return;
    if (status == FrameStatus::kOversized) {
      // The stream cannot resynchronize after an oversized frame.
      // Protocol-error reply, not an ack: the request was never parsed, so
      // no durable state exists to fsync before answering.
      // NOLINTNEXTLINE(svclint-durability)
      (void)write_frame(*socket, make_error(ErrorCode::kOversizedFrame,
                                            "frame exceeds " +
                                                std::to_string(kMaxFrameBytes) + " bytes"));
      return;
    }

    Json request;
    try {
      request = Json::parse(line);
    } catch (const JsonError& error) {
      // Malformed-frame reply carries no durable state — the bytes never
      // became a request, so there is nothing to append.
      // NOLINTNEXTLINE(svclint-durability)
      if (!write_frame(*socket, make_error(ErrorCode::kMalformedFrame, error.what())))
        return;
      continue;
    }
    bool fatal = false;
    const Json response = answer(request, conn, &fatal);
    if (!write_frame(*socket, response)) return;
    if (fatal) return;
    // Restart the liveness clock only after the response is out: time spent
    // blocked inside a handler (a parked ask) must not count against the
    // client, and the clock measures the peer's progress, not ours.
    last_frame = std::chrono::steady_clock::now();
  }
}

Json FrameServer::answer(const Json& request, Connection& conn, bool* fatal) {
  *fatal = false;
  try {
    const std::string name = require_string(request, "op");
    const std::optional<Op> op = op_from(name);
    if (op != Op::kHello) {
      if (!conn.hello_done) {
        return make_error(ErrorCode::kHelloRequired,
                          "first frame must be a hello handshake");
      }
      if (!op) return make_error(ErrorCode::kUnknownOp, "unknown op: " + name);
      return conn.handler->handle(*op, request, conn.tenant);
    }
    const std::uint64_t version = require_uint(request, "version");
    if (version != static_cast<std::uint64_t>(kProtocolVersion)) {
      *fatal = true;
      return make_error(ErrorCode::kVersionMismatch,
                        std::string(config_.speaker) + " speaks protocol version " +
                            std::to_string(kProtocolVersion) + ", client sent " +
                            std::to_string(version));
    }
    conn.hello_done = true;
    // Quota identity: optional and connection-scoped. A repeated hello may
    // change it (same trust model as the identity itself — the loopback
    // peer is who it says it is).
    if (const Json* field = request.find("tenant")) conn.tenant = field->as_string();
    Json response = make_ok();
    response.set("version", static_cast<std::uint64_t>(kProtocolVersion));
    response.set("server", config_.name);
    response.set("max_frame", static_cast<std::uint64_t>(kMaxFrameBytes));
    // Role in the handshake: a shipper that dials a promoted daemon can
    // fence before shipping a single record (see wal_ship.cpp).
    if (config_.role) response.set("role", config_.role());
    Json features = Json::array();
    for (const char* feature : kFeatures) features.push_back(feature);
    response.set("features", std::move(features));
    return response;
  } catch (const ProtocolError& error) {
    if (error.code == ErrorCode::kRetryLater)
      return make_retry_later(error.what(), error.retry_after_ms);
    return make_error(error.code, error.what());
  } catch (const JsonError& error) {
    return make_error(ErrorCode::kBadRequest, error.what());
  } catch (const std::exception& error) {
    return make_error(ErrorCode::kInternal, error.what());
  }
}

}  // namespace repro::service
