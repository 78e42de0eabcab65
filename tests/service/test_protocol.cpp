// Wire protocol unit tests: framing over real loopback sockets (split
// writes, pipelined frames, oversized frames, timeouts), the op table, the
// endpoint parser, and the message codecs the client/server pair relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <string>

#include "common/socket.hpp"
#include "service/protocol.hpp"

namespace repro::service {
namespace {

/// A connected loopback socket pair (client end + accepted server end).
struct LoopbackPair {
  ListenSocket listener;
  Socket client;
  Socket server;

  LoopbackPair() {
    listener = ListenSocket::listen_loopback(0);
    client = Socket::connect_loopback(listener.port());
    EXPECT_EQ(listener.accept(&server), Socket::Io::kOk);
  }
};

TEST(Framing, SplitWritesReassembleIntoFrames) {
  LoopbackPair pair;
  FrameReader reader(pair.server);
  const std::string frame = "{\"op\":\"ping\"}\n";
  // Drip the frame in 3-byte chunks.
  for (std::size_t i = 0; i < frame.size(); i += 3) {
    const std::size_t n = std::min<std::size_t>(3, frame.size() - i);
    ASSERT_TRUE(pair.client.write_all(frame.data() + i, n));
  }
  std::string line;
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
}

TEST(Framing, PipelinedFramesComeOutOneByOne) {
  LoopbackPair pair;
  FrameReader reader(pair.server);
  const std::string burst = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
  ASSERT_TRUE(pair.client.write_all(burst.data(), burst.size()));
  std::string line;
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(line, "{\"a\":1}");
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(line, "{\"b\":2}");
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(line, "{\"c\":3}");
}

TEST(Framing, OversizedFrameIsRejectedBeforeTheNewlineArrives) {
  LoopbackPair pair;
  FrameReader reader(pair.server, /*max_frame=*/1024);
  const std::string huge(4096, 'x');  // no newline at all
  ASSERT_TRUE(pair.client.write_all(huge.data(), huge.size()));
  std::string line;
  EXPECT_EQ(reader.next(&line), FrameStatus::kOversized);
}

TEST(Framing, PeerCloseMidFrameReportsMidFrameEof) {
  LoopbackPair pair;
  FrameReader reader(pair.server);
  ASSERT_TRUE(pair.client.write_all("{\"partial\":", 11));
  pair.client.close();
  std::string line;
  // The partial bytes surface as a yield first (progress without a frame)...
  EXPECT_EQ(reader.next(&line), FrameStatus::kTimeout);
  // ...then the close lands on a non-empty buffer: a torn stream, not an
  // orderly between-frames close.
  EXPECT_EQ(reader.next(&line), FrameStatus::kMidFrameEof);
}

TEST(Framing, PeerCloseBetweenFramesReportsClosed) {
  LoopbackPair pair;
  FrameReader reader(pair.server);
  ASSERT_TRUE(pair.client.write_all("{\"a\":1}\n", 8));
  pair.client.close();
  std::string line;
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(line, "{\"a\":1}");
  EXPECT_EQ(reader.next(&line), FrameStatus::kClosed);
}

TEST(Framing, ReadTimeoutSurfacesAndPartialFrameSurvives) {
  LoopbackPair pair;
  pair.server.set_read_timeout(std::chrono::milliseconds(30));
  FrameReader reader(pair.server);
  ASSERT_TRUE(pair.client.write_all("{\"x\":", 5));
  std::string line;
  EXPECT_EQ(reader.next(&line), FrameStatus::kTimeout);
  // The retained partial frame completes on the next call.
  ASSERT_TRUE(pair.client.write_all("1}\n", 3));
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(line, "{\"x\":1}");
}

TEST(Framing, WriteFrameRoundTrip) {
  LoopbackPair pair;
  Json message = Json::object();
  message.set("op", "status");
  ASSERT_TRUE(write_frame(pair.client, message));
  FrameReader reader(pair.server);
  std::string line;
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(Json::parse(line).find("op")->as_string(), "status");
}

TEST(OpTable, EveryOpRoundTripsAndHasARoleAndARoute) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    const OpInfo& info = op_info(op);
    EXPECT_EQ(info.op, op) << i;
    EXPECT_FALSE(info.name.empty()) << i;
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate name " << info.name;
    EXPECT_EQ(op_from(info.name), op) << info.name;
    EXPECT_EQ(op_frame(op).dump(), R"({"op":")" + std::string(info.name) + R"("})");
    // The role gate and the route agree: ops a daemon role refuses reach
    // it only by session id or placement (primary-only session ops) or
    // never through tunelb at all (standby-only replication records).
    switch (info.role) {
      case OpRole::kAny: break;
      case OpRole::kPrimary:
        EXPECT_TRUE(info.route == OpRoute::kPlace || info.route == OpRoute::kBySession ||
                    info.route == OpRoute::kRefuse)
            << info.name;
        break;
      case OpRole::kStandby: EXPECT_EQ(info.route, OpRoute::kRefuse) << info.name; break;
    }
  }
  EXPECT_EQ(names.size(), kOpCount);
  EXPECT_FALSE(op_from("frobnicate").has_value());
  EXPECT_FALSE(op_from("").has_value());
  EXPECT_EQ(op_info(Op::kHello).route, OpRoute::kLocal);
  EXPECT_EQ(op_info(Op::kTell).route, OpRoute::kBySession);
  EXPECT_EQ(op_info(Op::kStoreImport).route, OpRoute::kFanOut);
  EXPECT_EQ(op_info(Op::kReseed).role, OpRole::kPrimary);
  EXPECT_EQ(op_info(Op::kShipTell).role, OpRole::kStandby);
}

TEST(OpTable, ReplayRulesReadTheRequest) {
  const auto parsed = [](const char* text) { return Json::parse(text); };
  EXPECT_TRUE(replay_safe(op_info(Op::kResult), parsed(R"({"op":"result"})")));
  EXPECT_FALSE(replay_safe(op_info(Op::kOpen), parsed(R"({"op":"open"})")));
  EXPECT_FALSE(replay_safe(op_info(Op::kOpen), parsed(R"({"op":"open","token":""})")));
  EXPECT_TRUE(replay_safe(op_info(Op::kOpen), parsed(R"({"op":"open","token":"t"})")));
  EXPECT_FALSE(replay_safe(op_info(Op::kAsk), parsed(R"({"op":"ask","resume":false})")));
  EXPECT_TRUE(replay_safe(op_info(Op::kAsk), parsed(R"({"op":"ask","resume":true})")));
  EXPECT_FALSE(replay_safe(op_info(Op::kTell), parsed(R"({"op":"tell"})")));
  EXPECT_FALSE(replay_safe(op_info(Op::kTell), parsed(R"({"op":"tell","seq":0})")));
  EXPECT_TRUE(replay_safe(op_info(Op::kTell), parsed(R"({"op":"tell","seq":3})")));
  EXPECT_THROW((void)replay_safe(op_info(Op::kTell), parsed(R"({"op":"tell","seq":"x"})")),
               ProtocolError);
}

TEST(Protocol, ParseEndpointIsStrict) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_endpoint("7001", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7001u);
  ASSERT_TRUE(parse_endpoint("10.0.0.2:65535", &host, &port));
  EXPECT_EQ(host, "10.0.0.2");
  EXPECT_EQ(port, 65535u);
  for (const char* bad : {"", "0", "70000", "65536", "12ab", "+5", "-5", " 5", "host:",
                          "host:70000", "host:18446744073709551616", "host:5x"}) {
    host = "unchanged";
    port = 9;
    EXPECT_FALSE(parse_endpoint(bad, &host, &port)) << "'" << bad << "'";
    EXPECT_EQ(host, "unchanged") << bad;
    EXPECT_EQ(port, 9u) << bad;
  }
}

TEST(Protocol, OpenRoundTripWithRetryAndCustomSpace) {
  OpenParams params;
  params.algorithm = "bogp";
  params.budget = 77;
  params.seed = 18446744073709551615ull;  // must survive exactly
  params.retry.max_retries = 3;
  params.retry.backoff_initial_us = 50.0;
  params.retry.backoff_multiplier = 3.0;
  params.retry.backoff_max_us = 5000.0;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  params.constraint = "none";

  const OpenParams decoded = decode_open(Json::parse(encode_open(params).dump()));
  EXPECT_EQ(decoded.algorithm, "bogp");
  EXPECT_EQ(decoded.budget, 77u);
  EXPECT_EQ(decoded.seed, params.seed);
  EXPECT_EQ(decoded.retry.max_retries, 3u);
  EXPECT_DOUBLE_EQ(decoded.retry.backoff_multiplier, 3.0);
  ASSERT_TRUE(decoded.custom_space);
  ASSERT_EQ(decoded.params.size(), 3u);
  EXPECT_EQ(decoded.params[2].name, "c");
  EXPECT_EQ(decoded.params[2].hi, 5);
  const tuner::ParamSpace space = decoded.make_space();
  EXPECT_EQ(space.size(), 384u);
}

TEST(Protocol, OpenDefaultsToPaperSpace) {
  OpenParams params;
  const OpenParams decoded = decode_open(Json::parse(encode_open(params).dump()));
  EXPECT_FALSE(decoded.custom_space);
  EXPECT_EQ(decoded.make_space().size(), 2097152u);  // paper |S|
}

TEST(Protocol, OpenValidation) {
  Json request = encode_open(OpenParams{});
  request.set("budget", 0);
  EXPECT_THROW((void)decode_open(request), ProtocolError);
  request.set("budget", 10);
  request.set("seed", "not a number");
  EXPECT_THROW((void)decode_open(request), ProtocolError);

  OpenParams empty_range;
  empty_range.custom_space = true;
  empty_range.params = {{"a", 5, 2}};
  EXPECT_THROW((void)decode_open(encode_open(empty_range)), ProtocolError);

  OpenParams bad_constraint;
  bad_constraint.custom_space = true;
  bad_constraint.params = {{"a", 1, 4}};
  bad_constraint.constraint = "bogus";
  // decode accepts the frame; materializing the space rejects the constraint.
  EXPECT_THROW((void)decode_open(encode_open(bad_constraint)).make_space(),
               ProtocolError);
}

TEST(Protocol, Wg256ConstraintAppliesToTrailingAxes) {
  OpenParams params;
  params.custom_space = true;
  params.params = {{"t", 1, 16}, {"x", 1, 8}, {"y", 1, 8}, {"z", 1, 8}};
  params.constraint = "wg256";
  const tuner::ParamSpace space = params.make_space();
  EXPECT_TRUE(space.is_executable({1, 8, 8, 4}));   // 256 allowed
  EXPECT_FALSE(space.is_executable({1, 8, 8, 5}));  // 320 rejected
}

TEST(Protocol, EvaluationRoundTripIncludingNan) {
  Json frame = Json::object();
  encode_evaluation_into(frame, tuner::Evaluation{123.5, true, tuner::EvalStatus::kOk});
  tuner::Evaluation eval = decode_evaluation(Json::parse(frame.dump()));
  EXPECT_DOUBLE_EQ(eval.value, 123.5);
  EXPECT_TRUE(eval.valid);
  EXPECT_EQ(eval.status, tuner::EvalStatus::kOk);

  Json invalid = Json::object();
  encode_evaluation_into(invalid, tuner::Evaluation{});  // NaN, invalid
  eval = decode_evaluation(Json::parse(invalid.dump()));
  EXPECT_TRUE(std::isnan(eval.value));
  EXPECT_FALSE(eval.valid);
  EXPECT_EQ(eval.status, tuner::EvalStatus::kInvalid);

  Json bad = Json::parse(invalid.dump());
  bad.set("status", "exploded");
  EXPECT_THROW((void)decode_evaluation(bad), ProtocolError);
}

TEST(Protocol, TuneResultRoundTrip) {
  tuner::TuneResult result;
  result.best_config = {3, 1, 4};
  result.best_value = 1.0625;
  result.found_valid = true;
  result.evaluations_used = 99;
  tuner::FailureCounters counters;
  counters.ok = 90;
  counters.transient = 9;
  counters.retries = 4;
  counters.backoff_us = 1234.5;

  tuner::TuneResult decoded;
  tuner::FailureCounters decoded_counters;
  decode_tune_result(Json::parse(encode_tune_result(result, counters).dump()),
                     &decoded, &decoded_counters);
  EXPECT_EQ(decoded.best_config, result.best_config);
  EXPECT_DOUBLE_EQ(decoded.best_value, 1.0625);
  EXPECT_TRUE(decoded.found_valid);
  EXPECT_EQ(decoded.evaluations_used, 99u);
  EXPECT_EQ(decoded_counters.ok, 90u);
  EXPECT_EQ(decoded_counters.transient, 9u);
  EXPECT_EQ(decoded_counters.retries, 4u);
  EXPECT_DOUBLE_EQ(decoded_counters.backoff_us, 1234.5);
}

TEST(Protocol, ErrorCodesRoundTripThroughText) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kOversizedFrame, ErrorCode::kVersionMismatch,
        ErrorCode::kSessionLimit, ErrorCode::kSessionEvicted, ErrorCode::kRetryLater,
        ErrorCode::kDeadlineExceeded, ErrorCode::kDraining, ErrorCode::kInternal}) {
    EXPECT_EQ(error_code_from(to_string(code)), code);
  }
  EXPECT_EQ(error_code_from("no_such_code"), std::nullopt);
}

TEST(Protocol, RequireHelpersThrowTypedErrors) {
  Json object = Json::object();
  object.set("n", -1);
  object.set("s", 7);
  try {
    (void)require_string(object, "missing");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  }
  EXPECT_THROW((void)require_uint(object, "n"), ProtocolError);
  EXPECT_THROW((void)require_string(object, "s"), ProtocolError);
  EXPECT_THROW((void)require(Json(3), "x"), ProtocolError);
}

}  // namespace
}  // namespace repro::service
