// Golden wire bytes of tuned and tunelb. Every op's reply is compared byte
// for byte against a pinned frame, on an in-process primary, an in-process
// standby and a one-shard Router; `status` replies, whose ports and
// timings vary, are pinned by key order and value types. Listening fake
// peers capture the request frames tunelb and the WAL shipper send.
//
// These frames were pinned before tuned and tunelb moved onto one op table
// and one connection core, and that move changed only what is marked
// "Changed by the op table" below: tunelb's hello now lists the "store"
// feature it always served, and the wrong_role texts of the role gates the
// table merged name the refused op.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/router.hpp"
#include "service/server.hpp"
#include "service/wal_ship.hpp"

namespace repro::service {
namespace {

using namespace std::chrono_literals;

std::string fresh_dir() {
  char templ[] = "/tmp/repro_wire_golden_XXXXXX";
  const char* dir = ::mkdtemp(templ);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// Replace every occurrence of `from` in `text` with `to`.
std::string replace_all(std::string text, const std::string& from, const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// One raw loopback connection: request bytes in, reply bytes out.
class Wire {
 public:
  explicit Wire(std::uint16_t port) : socket_(Socket::connect_loopback(port)), reader_(socket_) {
    socket_.set_read_timeout(200ms);
  }

  /// Send `frame` plus the delimiter; return the reply line.
  std::string exchange(const std::string& frame) {
    const std::string line = frame + "\n";
    EXPECT_TRUE(socket_.write_all(line.data(), line.size()));
    return next();
  }

  /// Send raw bytes (no delimiter added); return the reply line.
  std::string send_raw(const std::string& bytes) {
    EXPECT_TRUE(socket_.write_all(bytes.data(), bytes.size()));
    return next();
  }

  /// True once the peer has closed the connection.
  bool closed() {
    std::string line;
    for (int attempt = 0; attempt < 50; ++attempt) {
      const FrameStatus status = reader_.next(&line);
      if (status == FrameStatus::kClosed) return true;
      if (status != FrameStatus::kTimeout) return false;
    }
    return false;
  }

 private:
  std::string next() {
    std::string line;
    for (int attempt = 0; attempt < 50; ++attempt) {
      const FrameStatus status = reader_.next(&line);
      if (status == FrameStatus::kOk) return line;
      if (status != FrameStatus::kTimeout) return "<connection ended>";
    }
    return "<no reply>";
  }

  Socket socket_;
  FrameReader reader_;
};

struct Step {
  std::string request;
  std::string reply;
};

void run_script(Wire& wire, const std::vector<Step>& steps) {
  for (const Step& step : steps) {
    EXPECT_EQ(wire.exchange(step.request), step.reply) << "request: " << step.request;
  }
}

/// Key order and value types of a reply, values dropped:
/// {"a":1,"b":[{"c":"x"}]} -> {a:number,b:[{c:string}]}. An array shows
/// the shape of its first element.
std::string shape(const Json& value) {
  switch (value.type()) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kInt:
    case Json::Type::kUint:
    case Json::Type::kDouble: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray:
      return value.as_array().empty() ? "[]" : "[" + shape(value.as_array().front()) + "]";
    case Json::Type::kObject: {
      std::string out = "{";
      for (const auto& [key, field] : value.as_object()) {
        if (out.size() > 1) out += ",";
        out += key + ":" + shape(field);
      }
      return out + "}";
    }
  }
  return "?";
}

/// Stands in for a daemon: records every frame it receives, in order, and
/// answers each with `reply(request)`. Serves one connection at a time.
class FakePeer {
 public:
  using Reply = std::function<std::string(const Json& request)>;

  explicit FakePeer(Reply reply)
      : listener_(ListenSocket::listen_loopback(0)), reply_(std::move(reply)) {
    listener_.set_accept_timeout(20ms);
    thread_ = std::thread([this] { serve(); });
  }
  ~FakePeer() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    thread_.join();
  }
  FakePeer(const FakePeer&) = delete;
  FakePeer& operator=(const FakePeer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] std::vector<std::string> frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }

 private:
  bool stopping() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_;
  }

  void serve() {
    while (!stopping()) {
      Socket socket;
      if (listener_.accept(&socket) != Socket::Io::kOk) continue;
      socket.set_read_timeout(20ms);
      FrameReader reader(socket);
      std::string line;
      while (!stopping()) {
        const FrameStatus status = reader.next(&line);
        if (status == FrameStatus::kTimeout) continue;
        if (status != FrameStatus::kOk) break;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          frames_.push_back(line);
        }
        const std::string answer = reply_(Json::parse(line)) + "\n";
        if (!socket.write_all(answer.data(), answer.size())) break;
      }
    }
  }

  ListenSocket listener_;
  Reply reply_;
  mutable std::mutex mutex_;
  std::vector<std::string> frames_;
  bool stop_ = false;
  std::thread thread_;
};

std::string op_of(const Json& request) {
  const Json* op = request.find("op");
  return op != nullptr && op->is_string() ? op->as_string() : "";
}

ServerConfig daemon_config() {
  ServerConfig config;
  config.poll_interval = 20ms;
  return config;
}

RouterConfig one_shard(std::uint16_t primary_port) {
  RouterConfig config;
  config.shards = {{"127.0.0.1", primary_port, "127.0.0.1", 0}};
  config.probe_interval = 0ms;
  config.probe_timeout = 500ms;
  return config;
}

const std::string kOpen =
    R"({"op":"open","algorithm":"rs","budget":2,"seed":7,"space":{"params":[{"name":"a","lo":1,"hi":4},{"name":"b","lo":0,"hi":3}],"constraint":"none"}})";
const std::string kImport =
    R"({"op":"store_import","tenants":[{"benchmark":"conv","arch":"a0","space":"ffffffffffffffff","rows":[{"c":[1,2],"v":10.5,"ok":true},{"c":[3,4],"v":null,"ok":false}]}]})";
const std::string kHello = R"({"op":"hello","version":1,"client":"golden"})";
const std::string kMalformed =
    R"({"ok":false,"error":"malformed_frame","message":"json: bad literal at offset 0"})";
const std::string kHelloRequired =
    R"({"ok":false,"error":"hello_required","message":"first frame must be a hello handshake"})";
const std::string kOversized =
    R"({"ok":false,"error":"oversized_frame","message":"frame exceeds 1048576 bytes"})";

/// One session of kOpen driven to completion, then the ops that follow a
/// close; `sid` is the id as the client sees it.
std::vector<Step> session_script(const std::string& sid) {
  const std::string s = "\"session\":\"" + sid + "\"";
  return {
      {R"({"op":"ask",)" + s + "}", R"({"ok":true,"done":false,"config":[1,0]})"},
      {R"({"op":"tell",)" + s + R"(,"value":1.5,"valid":true,"status":"ok","seq":1})",
       R"({"ok":true,"remaining":1})"},
      {R"({"op":"tell",)" + s + R"(,"value":1.5,"valid":true,"status":"ok","seq":1})",
       R"({"ok":true,"remaining":1,"duplicate":true})"},
      {R"({"op":"ask",)" + s + "}", R"({"ok":true,"done":false,"config":[3,1]})"},
      {R"({"op":"tell",)" + s + R"(,"value":null,"valid":false,"status":"invalid","seq":2})",
       R"({"ok":true,"remaining":0})"},
      {R"({"op":"ask",)" + s + "}", R"({"ok":true,"done":true})"},
      {R"({"op":"result",)" + s + "}",
       R"({"ok":true,"result":{"found_valid":true,"best_config":[1,0],"best_value":1.5,"evaluations_used":2,"counters":{"ok":1,"invalid":1,"transient":0,"timeout":0,"crashed":0,"retries":0,"retry_successes":0,"backoff_us":0}}})"},
      {R"({"op":"close",)" + s + "}", R"({"ok":true})"},
  };
}

TEST(WireGolden, DaemonRepliesAreByteIdentical) {
  ServerConfig config = daemon_config();
  config.store_dir = fresh_dir();
  TuneServer primary(config);
  primary.start();
  {
    Wire wire(primary.port());
    EXPECT_EQ(wire.exchange(R"({"op":"status"})"), kHelloRequired);
    EXPECT_EQ(wire.exchange("this is not json"), kMalformed);
    EXPECT_EQ(wire.exchange(R"({"op":"frobnicate"})"), kHelloRequired);
    run_script(wire, {
        {kHello,
         R"({"ok":true,"version":1,"server":"tuned/1","max_frame":1048576,"role":"primary","features":["deadline_ms","seq","resume","token","retry_later","cluster","store","quota"]})"},
        {R"({"op":"ping"})", R"({"ok":true})"},
        {R"({"op":"frobnicate"})",
         R"({"ok":false,"error":"unknown_op","message":"unknown op: frobnicate"})"},
        {R"({"session":"s1"})",
         R"({"ok":false,"error":"bad_request","message":"missing field: op"})"},
        {R"([1,2])",
         R"({"ok":false,"error":"bad_request","message":"request is not an object"})"},
        {kOpen, R"({"ok":true,"session":"s1"})"},
    });
    run_script(wire, session_script("s1"));
    run_script(wire, {
        {R"({"op":"ask","session":"s1"})",
         R"({"ok":false,"error":"unknown_session","message":"unknown session: s1"})"},
        {kImport, R"({"ok":true,"imported":2,"duplicates":0})"},
        {kImport, R"({"ok":true,"imported":0,"duplicates":2})"},
        {R"({"op":"store_export","limit":1})",
         R"({"ok":true,"tenants":[{"benchmark":"conv","arch":"a0","space":"ffffffffffffffff","rows":[{"c":[1,2],"v":10.5,"ok":true}]}],"records":1,"truncated":true,"next_cursor":"636f6e761f61301f66666666666666666666666666666666:1"})"},
        {R"({"op":"store_export","cursor":"636f6e761f61301f66666666666666666666666666666666:1"})",
         R"({"ok":true,"tenants":[{"benchmark":"conv","arch":"a0","space":"ffffffffffffffff","rows":[{"c":[3,4],"v":null,"ok":false}]}],"records":1,"truncated":false})"},
        {R"({"op":"store_export","cursor":"not-a-cursor"})",
         R"({"ok":false,"error":"bad_request","message":"malformed export cursor"})"},
        {R"({"op":"promote"})", R"({"ok":true,"already_primary":true,"role":"primary"})"},
        {R"({"op":"reseed","port":0})",
         R"({"ok":false,"error":"bad_request","message":"reseed port out of range"})"},
        {R"({"op":"reseed","port":7})",
         R"({"ok":false,"error":"bad_request","message":"reseed requires durability (--state-dir): local journals are the resync source"})"},
    });
    for (const char* op : {"ship_open", "ship_tell", "ship_close", "ship_evict"}) {
      EXPECT_EQ(wire.exchange(std::string(R"({"op":")") + op + R"(","session":"s1"})"),
                R"({"ok":false,"error":"wrong_role","message":"this daemon is a primary; ship_* records belong on a standby"})")
          << op;
    }
    const std::string stats = replace_all(wire.exchange(R"({"op":"store_stats"})"),
                                          config.store_dir, "<dir>");
    EXPECT_EQ(stats,
              R"({"ok":true,"store_enabled":true,"dir":"<dir>","records":2,"tenants":1,"appends":2,"duplicates":2,"rejected":0,"evictions":0,"compactions":0,"io_errors":0,"log_records":2,"log_bytes":149,"loaded_records":0,"torn_tail":false,"digest":13203772699863784034})");
    EXPECT_EQ(wire.exchange(R"({"op":"hello","version":99})"),
              R"({"ok":false,"error":"version_mismatch","message":"server speaks protocol version 1, client sent 99"})");
    EXPECT_TRUE(wire.closed());
  }
  {
    Wire wire(primary.port());
    EXPECT_EQ(wire.send_raw(std::string(kMaxFrameBytes + 64, 'x')), kOversized);
    EXPECT_TRUE(wire.closed());
  }
  primary.stop();
}

TEST(WireGolden, StandbyRepliesAreByteIdentical) {
  ServerConfig config = daemon_config();
  config.standby = true;
  TuneServer standby(config);
  standby.start();
  Wire wire(standby.port());
  EXPECT_EQ(wire.exchange(kHello),
            R"({"ok":true,"version":1,"server":"tuned/1","max_frame":1048576,"role":"standby","features":["deadline_ms","seq","resume","token","retry_later","cluster","store","quota"]})");
  // Changed by the op table, which merged the session-op gate with
  // reseed's. Before, open/ask/tell/result/close answered "this daemon is a
  // hot standby; session ops belong on the primary (or promote this one
  // first)" and reseed answered "reseed belongs on the primary".
  const auto primary_gate = [](const std::string& op) {
    return R"({"ok":false,"error":"wrong_role","message":"this daemon is a hot standby; )" +
           op + R"j( belongs on the primary (or promote this one first)"})j";
  };
  EXPECT_EQ(wire.exchange(kOpen), primary_gate("open"));
  for (const char* op : {"ask", "tell", "result", "close", "reseed"}) {
    EXPECT_EQ(wire.exchange(std::string(R"({"op":")") + op + R"(","session":"s1"})"),
              primary_gate(op))
        << op;
  }
  run_script(wire, {
      {R"({"op":"store_stats"})", R"({"ok":true,"store_enabled":false})"},
      {R"({"op":"store_export"})",
       R"({"ok":false,"error":"bad_request","message":"no results store configured"})"},
      {R"({"op":"ship_close","session":"s9"})", R"({"ok":true})"},
      {R"({"op":"promote"})", R"({"ok":true,"role":"primary"})"},
      {R"({"op":"promote"})", R"({"ok":true,"already_primary":true,"role":"primary"})"},
  });
  standby.stop();
}

TEST(WireGolden, RouterRepliesAreByteIdentical) {
  ServerConfig shard_config = daemon_config();
  shard_config.store_dir = fresh_dir();
  TuneServer shard(shard_config);
  shard.start();
  Router router(one_shard(shard.port()));
  router.start();
  {
    Wire wire(router.port());
    EXPECT_EQ(wire.exchange(R"({"op":"status"})"), kHelloRequired);
    EXPECT_EQ(wire.exchange("this is not json"), kMalformed);
    EXPECT_EQ(wire.exchange(R"({"op":"frobnicate"})"), kHelloRequired);
    run_script(wire, {
        // Changed by the op table: "store" joined the features, which
        // before listed only deadline_ms, seq, resume, token, retry_later,
        // cluster and quota although tunelb fans out every store op.
        {kHello,
         R"({"ok":true,"version":1,"server":"tunelb/1","max_frame":1048576,"features":["deadline_ms","seq","resume","token","retry_later","cluster","store","quota"]})"},
        {R"({"op":"ping"})", R"({"ok":true})"},
        {R"({"op":"frobnicate"})",
         R"({"ok":false,"error":"unknown_op","message":"unknown op: frobnicate"})"},
        {R"({"session":"0:s1"})",
         R"({"ok":false,"error":"bad_request","message":"missing field: op"})"},
        {R"([1,2])",
         R"({"ok":false,"error":"bad_request","message":"request is not an object"})"},
        {kOpen, R"({"ok":true,"session":"0:s1"})"},
    });
    run_script(wire, session_script("0:s1"));
    run_script(wire, {
        {R"({"op":"ask","session":"s1"})",
         R"({"ok":false,"error":"unknown_session","message":"session id 's1' is not a '<shard>:<sid>' id of this cluster"})"},
        {R"({"op":"ask","session":"0:s1"})",
         R"({"ok":false,"error":"unknown_session","message":"unknown session: s1"})"},
        {kImport, R"({"ok":true,"imported":2,"duplicates":0})"},
        {R"({"op":"store_export","limit":1})",
         R"({"ok":true,"tenants":[{"benchmark":"conv","arch":"a0","space":"ffffffffffffffff","rows":[{"c":[1,2],"v":10.5,"ok":true}]}],"records":1,"truncated":true,"next_cursor":"0|636f6e761f61301f66666666666666666666666666666666:1"})"},
        {R"({"op":"store_export","cursor":"0|636f6e761f61301f66666666666666666666666666666666:1"})",
         R"({"ok":true,"tenants":[{"benchmark":"conv","arch":"a0","space":"ffffffffffffffff","rows":[{"c":[3,4],"v":null,"ok":false}]}],"records":1,"truncated":false})"},
        {R"({"op":"store_export","cursor":"not-a-cursor"})",
         R"({"ok":false,"error":"bad_request","message":"malformed export cursor"})"},
    });
    // Changed by the op table, which merged tunelb's two refusals. Before,
    // ship_* and promote answered "a router accepts client session ops, not
    // replication records; ship to a standby shard directly" and reseed
    // answered "re-seeding is driven by the router's own prober; to attach
    // a follower manually, send reseed to the shard primary directly".
    for (const char* op :
         {"ship_open", "ship_tell", "ship_close", "ship_evict", "promote", "reseed"}) {
      EXPECT_EQ(wire.exchange(std::string(R"({"op":")") + op + R"(","session":"s1"})"),
                R"({"ok":false,"error":"wrong_role","message":"a router serves client ops only; send )" +
                    std::string(op) + R"( to a shard daemon directly"})")
          << op;
    }
    const std::string stats = replace_all(wire.exchange(R"({"op":"store_stats"})"),
                                          shard_config.store_dir, "<dir>");
    EXPECT_EQ(stats,
              R"({"ok":true,"store_enabled":true,"records":2,"tenants":1,"appends":2,"duplicates":0,"rejected":0,"evictions":0,"compactions":0,"io_errors":0,"log_records":2,"log_bytes":149,"loaded_records":0,"shards":[{"ok":true,"store_enabled":true,"dir":"<dir>","records":2,"tenants":1,"appends":2,"duplicates":0,"rejected":0,"evictions":0,"compactions":0,"io_errors":0,"log_records":2,"log_bytes":149,"loaded_records":0,"torn_tail":false,"digest":13203772699863784034,"shard":0}]})");
    EXPECT_EQ(wire.exchange(R"({"op":"hello","version":99})"),
              R"({"ok":false,"error":"version_mismatch","message":"router speaks protocol version 1, client sent 99"})");
    EXPECT_TRUE(wire.closed());
  }
  {
    Wire wire(router.port());
    EXPECT_EQ(wire.send_raw(std::string(kMaxFrameBytes + 64, 'x')), kOversized);
    EXPECT_TRUE(wire.closed());
  }
  router.stop();
  shard.stop();
}

TEST(WireGolden, StatusKeyOrderAndValueTypesArePinned) {
  TuneServer shard(daemon_config());
  shard.start();
  Router router(one_shard(shard.port()));
  router.start();
  Wire direct(shard.port());
  Wire routed(router.port());
  EXPECT_EQ(direct.exchange(R"({"op":"hello","version":1,"client":"golden","tenant":"acme"})")
                .substr(0, 11),
            R"({"ok":true,)");
  EXPECT_EQ(routed.exchange(R"({"op":"hello","version":1,"client":"golden","tenant":"acme"})")
                .substr(0, 11),
            R"({"ok":true,)");
  EXPECT_EQ(direct.exchange(kOpen), R"({"ok":true,"session":"s1"})");

  const std::string daemon_status =
      "{ok:bool,server:string,version:number,live_sessions:number,opened:number,"
      "closed:number,evicted:number,finished:number,asks:number,tells:number,"
      "duplicate_tells:number,tallies:{ok:number,invalid:number,transient:number,"
      "timeout:number,crashed:number,retries:number,retry_successes:number,"
      "backoff_us:number},wal_enabled:bool,store_enabled:bool,ship_enabled:bool,"
      "ship_state:string,quotas:{enabled:bool,queue_depth:number,queued:number,"
      "granted:number,timeouts:number,shed_anonymous:number,shed_over_quota:number,"
      "shed_queue_full:number,tell_pushbacks:number,tenants:[{tenant:string,"
      "sessions:number,inflight_tells:number,queued:number}]},role:string,"
      "promotions:number,demotions:number,draining:bool,active_connections:number,"
      "connections_accepted:number,connections_reaped:number,"
      "connections_refused:number,sessions:[{id:string,algorithm:string,"
      "budget:number,asks:number,tells:number,finished:bool,idle_ms:number}]}";
  EXPECT_EQ(shape(Json::parse(direct.exchange(R"({"op":"status"})"))), daemon_status);
  EXPECT_EQ(shape(Json::parse(routed.exchange(R"({"op":"status"})"))),
            "{ok:bool,server:string,version:number,role:string,shards:[{index:number,"
            "endpoint:string,health:string,has_standby:bool,promotions:number,"
            "reseeds:number,sessions_placed:number,status:" +
                daemon_status +
                "}],live_sessions:number,opened:number,closed:number,"
                "evicted:number,finished:number,asks:number,tells:number,"
                "duplicate_tells:number,quotas:{enabled:bool,queue_depth:number,"
                "queued:number,granted:number,timeouts:number,shed_anonymous:number,"
                "shed_over_quota:number,shed_queue_full:number,tell_pushbacks:number,"
                "tenants:[{tenant:string,sessions:number,inflight_tells:number,"
                "queued:number}]},reroutes:number,active_connections:number}");
  router.stop();
  shard.stop();
}

TEST(WireGolden, StatusOfAShippingPairAndADeadShardIsPinned) {
  // A durable primary with a results store and a hot ship link to its
  // durable standby, behind a router whose second shard refuses
  // connections. Pins the blocks the store- and ship-less daemon above
  // never emits: wal_errors, recovery, store, the ship* fields, and the
  // router's probe_error row.
  const std::string dir = fresh_dir();
  ServerConfig standby_config = daemon_config();
  standby_config.standby = true;
  standby_config.limits.state_dir = dir + "/standby";
  standby_config.store_dir = dir + "/standby-store";
  TuneServer standby(standby_config);
  standby.start();
  ServerConfig primary_config = daemon_config();
  primary_config.limits.state_dir = dir + "/primary";
  primary_config.store_dir = dir + "/primary-store";
  primary_config.limits.ship.port = standby.port();
  TuneServer primary(primary_config);
  primary.start();
  ASSERT_EQ(primary.sessions().ship_state(), ShipState::kHot);
  RouterConfig router_config = one_shard(primary.port());
  router_config.shards[0].standby_port = standby.port();
  router_config.shards.push_back({"127.0.0.1", 1, "127.0.0.1", 0});
  Router router(router_config);
  router.start();

  const std::string hello = R"({"op":"hello","version":1,"client":"golden","tenant":"acme"})";
  Wire to_primary(primary.port());
  Wire to_standby(standby.port());
  Wire routed(router.port());
  EXPECT_EQ(to_primary.exchange(hello).substr(0, 11), R"({"ok":true,)");
  EXPECT_EQ(to_standby.exchange(hello).substr(0, 11), R"({"ok":true,)");
  EXPECT_EQ(routed.exchange(hello).substr(0, 11), R"({"ok":true,)");
  EXPECT_EQ(to_primary.exchange(kOpen), R"({"ok":true,"session":"s1"})");

  const std::string head =
      "{ok:bool,server:string,version:number,live_sessions:number,opened:number,"
      "closed:number,evicted:number,finished:number,asks:number,tells:number,"
      "duplicate_tells:number,tallies:{ok:number,invalid:number,transient:number,"
      "timeout:number,crashed:number,retries:number,retry_successes:number,"
      "backoff_us:number},wal_enabled:bool,wal_errors:number,"
      "recovery:{sessions_recovered:number,tells_replayed:number,sessions_failed:number,"
      "torn_tails:number,closed_discarded:number,evicted_tombstones:number},"
      "store_enabled:bool,store:{records:number,tenants:number,append_errors:number,"
      "io_errors:number},ship_enabled:bool,ship_state:string,";
  const std::string ship =
      "ship_connected:bool,ship_fenced:bool,ship_target:string,ship:{records_shipped:number,"
      "duplicates_acked:number,resyncs:number,reconnects:number,failures:number,"
      "retargets:number,store_rows_resynced:number},";
  const std::string quotas =
      "quotas:{enabled:bool,queue_depth:number,queued:number,granted:number,"
      "timeouts:number,shed_anonymous:number,shed_over_quota:number,"
      "shed_queue_full:number,tell_pushbacks:number,tenants:";
  const std::string tenant_rows = "[{tenant:string,sessions:number,inflight_tells:number,queued:number}]";
  const std::string tail =
      "},role:string,promotions:number,demotions:number,draining:bool,"
      "active_connections:number,connections_accepted:number,connections_reaped:number,"
      "connections_refused:number,sessions:[{id:string,algorithm:string,budget:number,"
      "asks:number,tells:number,finished:bool,idle_ms:number}]}";
  const std::string primary_status = head + ship + quotas + tenant_rows + tail;
  EXPECT_EQ(shape(Json::parse(to_primary.exchange(R"({"op":"status"})"))), primary_status);
  // The standby follows the session, tenant row included, and has no ship
  // link of its own.
  EXPECT_EQ(shape(Json::parse(to_standby.exchange(R"({"op":"status"})"))),
            head + quotas + tenant_rows + tail);

  const Json aggregated = Json::parse(routed.exchange(R"({"op":"status"})"));
  EXPECT_EQ(shape(aggregated),
            "{ok:bool,server:string,version:number,role:string,shards:[{index:number,"
            "endpoint:string,health:string,has_standby:bool,promotions:number,"
            "reseeds:number,sessions_placed:number,status:" +
                primary_status +
                "}],live_sessions:number,opened:number,closed:number,"
                "evicted:number,finished:number,asks:number,tells:number,"
                "duplicate_tells:number," +
                quotas + tenant_rows + "},reroutes:number,active_connections:number}");
  const Json& dead = aggregated.find("shards")->as_array().at(1);
  EXPECT_EQ(dead.dump(),
            R"({"index":1,"endpoint":"127.0.0.1:1","health":"up","has_standby":false,"promotions":0,"reseeds":0,"sessions_placed":0,"probe_error":"status call failed"})");
  router.stop();
  primary.stop();
  standby.stop();
}

std::string hello_of(const std::string& client) {
  return R"({"op":"hello","version":1,"client":")" + client + R"("})";
}

TEST(WireGolden, RouterRequestFramesArePinned) {
  // The shard's primary is dead (port 1: nothing listens), so the first
  // probe fails it over to `standby`; the second probe re-seeds the shard
  // with `spare`. A client then opens a session through the promoted shard.
  FakePeer standby([](const Json& request) -> std::string {
    const std::string op = op_of(request);
    if (op == "status") return R"({"ok":true,"role":"primary","ship_state":"down"})";
    if (op == "open") return R"({"ok":true,"session":"s1"})";
    if (op == "reseed") return R"({"ok":true,"hot":true,"ship_state":"hot"})";
    return R"({"ok":true})";
  });
  FakePeer spare([](const Json& request) -> std::string {
    return op_of(request) == "status" ? R"({"ok":true,"role":"standby"})" : R"({"ok":true})";
  });
  RouterConfig config;
  config.shards = {{"127.0.0.1", 1, "127.0.0.1", standby.port()}};
  config.spares = {{"127.0.0.1", spare.port()}};
  config.probe_interval = 0ms;
  config.probe_timeout = 500ms;
  config.probe_failures_before_down = 1;
  Router router(config);
  router.start();
  router.probe_now();
  router.probe_now();
  ASSERT_EQ(router.shards()[0].reseeds, 1u);
  {
    Wire wire(router.port());
    EXPECT_EQ(wire.exchange(R"({"op":"hello","version":1,"client":"golden","tenant":"acme"})")
                  .substr(0, 11),
              R"({"ok":true,)");
    EXPECT_EQ(wire.exchange(kOpen), R"({"ok":true,"session":"0:s1"})");
  }
  router.stop();

  const std::vector<std::string> expected_standby = {
      hello_of("tunelb/1"),
      R"({"op":"promote"})",
      hello_of("tunelb/1-probe"),
      R"({"op":"status"})",
      hello_of("tunelb/1"),
      R"({"op":"reseed","host":"127.0.0.1","port":)" + std::to_string(spare.port()) + "}",
      R"({"op":"hello","version":1,"client":"tunelb/1","tenant":"acme"})",
      kOpen,
  };
  EXPECT_EQ(standby.frames(), expected_standby);
  const std::vector<std::string> expected_spare = {hello_of("tunelb/1-probe"),
                                                   R"({"op":"status"})"};
  EXPECT_EQ(spare.frames(), expected_spare);
}

TEST(WireGolden, ShipperRequestFramesArePinned) {
  FakePeer follower([](const Json& request) -> std::string {
    const std::string op = op_of(request);
    if (op == "hello") return R"({"ok":true,"role":"standby"})";
    if (op == "ship_tell") return R"({"ok":true,"remaining":4})";
    return R"({"ok":true})";
  });
  ShipConfig config;
  config.port = follower.port();
  config.state_dir = fresh_dir();
  {
    WalShipper shipper(config);
    ASSERT_TRUE(shipper.connect_now());
    OpenParams params;
    params.algorithm = "rs";
    params.budget = 5;
    params.seed = 9;
    params.custom_space = true;
    params.params = {{"a", 1, 4}};
    EXPECT_TRUE(shipper.ship_open("s1", "tok-1", params));
    EXPECT_TRUE(shipper.ship_tell("s1", 1, {3},
                                  tuner::Evaluation{1.25, true, tuner::EvalStatus::kOk}));
  }
  const std::vector<std::string> expected = {
      hello_of("wal_ship/1"),
      R"({"op":"ship_open","session":"s1","token":"tok-1","open":{"op":"open","algorithm":"rs","budget":5,"seed":9,"space":{"params":[{"name":"a","lo":1,"hi":4}],"constraint":"none"}}})",
      R"({"op":"ship_tell","session":"s1","seq":1,"config":[3],"value":1.25,"valid":true,"status":"ok"})",
  };
  EXPECT_EQ(follower.frames(), expected);
}

}  // namespace
}  // namespace repro::service
