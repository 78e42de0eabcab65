#pragma once
// The connection core `tuned` and `tunelb` share: a portable blocking-socket
// JSON-lines server with no poll/epoll dependency. One accept thread owns
// the listener (short SO_RCVTIMEO ticks double as the owner's idle
// heartbeat); each accepted connection is handled by a worker of a
// dedicated repro::ThreadPool, which bounds concurrent connections to the
// pool size (excess connections queue in the pool until a worker frees up).
//
// The core owns the wire mechanics of docs/SERVICE.md §1, §2 and §5: the
// frame loop (an oversized frame is connection-fatal, a malformed one gets
// an error reply, idle connections are reaped, writes time out, accepts
// beyond the cap are refused), the hello handshake (version check,
// hello_required, the one features list, tenant capture), and the mapping
// of exceptions to error frames. Every op after the hello goes to the
// ConnectionHandler the owner builds for that connection.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/socket.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "service/protocol.hpp"

namespace repro::service {

/// One connection's op handler. The core answers hello itself and hands
/// every later op here; a throw becomes the matching error frame.
class ConnectionHandler {
 public:
  virtual ~ConnectionHandler() = default;
  /// `tenant` is the quota identity the connection's hello carried ("" =
  /// anonymous).
  [[nodiscard]] virtual Json handle(Op op, const Json& request,
                                    const std::string& tenant) = 0;
};

/// The owner's settings (ServerConfig and RouterConfig document the shared
/// ones) plus its hooks.
struct FrameServerConfig {
  std::string name;                ///< hello "server" field; log prefix
  const char* speaker = "server";  ///< this end, as version_mismatch names it
  std::uint16_t port = 0;
  std::size_t threads = 8;
  std::chrono::milliseconds poll_interval{200};
  std::chrono::milliseconds idle_timeout{0};  ///< 0 = connections never reaped
  std::chrono::milliseconds write_timeout{10000};
  std::size_t max_connections = 0;  ///< 0 = unlimited
  std::uint64_t retry_after_ms = 0;  ///< hint in the refusal past max_connections
  /// The hello's "role" value; unset = the hello carries no role.
  std::function<std::string()> role{};
  /// Runs on every accept tick that brought no connection; may be unset.
  std::function<void()> idle_tick{};
  /// Builds the handler of each accepted connection.
  std::function<std::unique_ptr<ConnectionHandler>()> make_handler{};
};

struct ConnectionCounters {
  std::size_t active = 0;
  std::size_t accepted = 0;
  std::size_t reaped = 0;   ///< closed by idle_timeout
  std::size_t refused = 0;  ///< turned away by max_connections
};

class FrameServer {
 public:
  explicit FrameServer(FrameServerConfig config);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind, listen, and spawn the accept thread. Throws std::runtime_error
  /// when the port cannot be bound.
  void start();
  /// Close the listener; live connections keep running.
  void stop_accepting();
  /// Hard stop: close the listener, shut every connection down, run
  /// `unblock` (it wakes handlers parked inside the owner), then join the
  /// accept thread and the workers. Idempotent.
  void stop(const std::function<void()>& unblock = {});

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Started and not stopping.
  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] bool stopping() const noexcept;
  [[nodiscard]] ConnectionCounters counters() const;

 private:
  /// Per-connection protocol state.
  struct Connection {
    std::unique_ptr<ConnectionHandler> handler;
    bool hello_done = false;
    std::string tenant;
  };

  void accept_loop();
  void serve(std::uint64_t id);
  /// One parsed request to its reply: the hello here, every other op by the
  /// connection's handler. Never throws; sets `*fatal` when the connection
  /// must close after the reply.
  [[nodiscard]] Json answer(const Json& request, Connection& conn, bool* fatal);

  const FrameServerConfig config_;
  std::uint16_t port_ = 0;
  ListenSocket listener_;
  std::unique_ptr<ThreadPool> pool_;
  /// The accept thread owns the blocking listener; a pool worker parked in
  /// accept() would starve connection handling on small pools.
  std::thread accept_thread_;  // NOLINT(reprolint-raw-thread)

  mutable repro::Mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Socket>> connections_
      GUARDED_BY(mutex_);
  std::uint64_t next_connection_id_ GUARDED_BY(mutex_) = 1;
  std::size_t accepted_ GUARDED_BY(mutex_) = 0;
  std::size_t reaped_ GUARDED_BY(mutex_) = 0;
  std::size_t refused_ GUARDED_BY(mutex_) = 0;
  bool started_ GUARDED_BY(mutex_) = false;
  bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace repro::service
