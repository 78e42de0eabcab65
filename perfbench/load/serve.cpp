// serve-tell and serve-bogp-warm: four closed-loop connections, each running
// tuning sessions back to back through tunelb to a primary tuned that ships
// its WAL to a hot standby. The daemons are the real binaries, started by
// run.py; this process is the one load process of the workload.
//
// serve-tell: rs sessions on a three-parameter custom space with synthetic
// values, so the ack path (protocol, router hop, WAL fsync, store fsync, ship
// round trip) sets the latency.
// serve-bogp-warm: bogp sessions on the paper space for harris/titanv at
// budget 200, measured with the simulator; every second session warm-starts
// from the results store, seeded over the wire during set-up.
//
// Daemon-side counters are read from outside only: /proc/<pid> and one
// `status` op at the start and at the end of the measured window. Every
// session's result is checked against an in-process replay of the same
// seed and values. A traced run then replays the workload's operations
// against each layer's public entry points in turn.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness/context.hpp"
#include "imagecl/benchmark_suite.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "service/session_wal.hpp"
#include "service/wal_ship.hpp"
#include "simgpu/arch.hpp"
#include "store/results_store.hpp"
#include "tuner/ask_tell.hpp"
#include "tuner/registry.hpp"
#if __has_include("tuner/pipeline.hpp")
#include "tuner/pipeline.hpp"
#endif
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;

constexpr std::size_t kConnections = 4;
/// Rows seeded into each warm tenant during set-up.
constexpr std::size_t kPriorRows = 256;
/// SessionLimits::warm_start_max_rows, the prior a warm open snapshots.
constexpr std::size_t kWarmStartRows = 512;
/// Operations per in-process layer replay.
constexpr std::size_t kLayerOps = 200;

struct Shape {
  bool bogp = false;
  std::size_t budget = 24;
  /// Sessions per campaign: campaign_s is the wall time the cluster takes
  /// to complete this many sessions over the four connections.
  std::size_t campaign_sessions = 64;
};

Shape shape_of(const std::string& workload) {
  if (workload == "serve-bogp-warm") return Shape{true, 200, 8};
  return Shape{};
}

service::OpenParams open_params(const Shape& shape, const std::string& arch_suffix,
                                std::uint64_t seed, bool warm) {
  service::OpenParams params;
  params.budget = shape.budget;
  params.seed = seed;
  if (shape.bogp) {
    params.algorithm = "bogp";
    params.benchmark = "harris";
    // One store tenant per connection: a warm session's prior is then a
    // function of that connection's own history, which the load process
    // mirrors to replay the session.
    params.arch = "titanv." + arch_suffix;
    params.warm_start = warm;
  } else {
    params.algorithm = "rs";
    params.custom_space = true;
    params.params = {{"a", 1, 128}, {"b", 1, 128}, {"c", 0, 63}};
    params.benchmark = "perfbench";
    params.arch = "sim." + arch_suffix;
  }
  return params;
}

store::StoreKey store_key(const service::OpenParams& params) {
  return store::StoreKey{params.benchmark, params.arch, service::space_fingerprint_of(params)};
}

/// Synthetic measurement, a pure function of the configuration.
tuner::Evaluation synthetic(const tuner::ParamSpace& space, const tuner::Configuration& config) {
  std::uint64_t state = seed_combine(99, space.encode(config) + 1);
  const std::uint64_t h = splitmix64(state);
  return tuner::Evaluation{1.0 + static_cast<double>(h >> 11) * 0x1.0p-53, true,
                           tuner::EvalStatus::kOk};
}

/// Where a session's measurements come from: synthetic values, or the
/// simulator through a BenchmarkContext built during set-up.
class Values {
 public:
  Values(const harness::BenchmarkContext* context, std::uint64_t seed)
      : context_(context), rng_(seed) {
    if (context_ != nullptr) objective_ = context_->make_objective(rng_);
  }
  tuner::Evaluation operator()(const tuner::ParamSpace& space,
                               const tuner::Configuration& config) {
    if (context_ == nullptr) return synthetic(space, config);
    tuner::Evaluation evaluation = objective_(config);
    // A failed measurement crosses the wire as null, i.e. NaN.
    if (!evaluation.valid) evaluation.value = std::nan("");
    return evaluation;
  }

 private:
  const harness::BenchmarkContext* context_;
  Rng rng_;
  tuner::Objective objective_;
};

/// The simulator for harris/titanv (no pre-collected dataset).
std::unique_ptr<harness::BenchmarkContext> make_harris_context(std::uint64_t seed) {
  return std::make_unique<harness::BenchmarkContext>(imagecl::benchmark_by_name("harris"),
                                                     simgpu::arch_by_name("titanv"), 0, seed);
}

/// One connection, no transport retries: every error is a failed operation.
service::ClientConfig client_config(std::uint16_t port, const std::string& name) {
  service::ClientConfig config;
  config.port = port;
  config.name = name;
  return config;
}

struct SessionRecord {
  service::OpenParams params;
  tuner::PriorHandle prior;  ///< the store snapshot a warm open takes
  std::vector<std::pair<tuner::Configuration, tuner::Evaluation>> told;
  tuner::TuneResult remote;
};

/// One connection's closed loop.
class Connection {
 public:
  Connection(std::size_t index, std::uint16_t port, std::uint64_t seed, const Shape& shape,
             const harness::BenchmarkContext* context)
      : index_(index),
        seed_(seed),
        shape_(shape),
        context_(context),
        client_(client_config(port, "perfbench-" + std::to_string(index))) {}

  /// Seed this connection's warm tenant (set-up) and mirror it.
  store::TenantSnapshot seed_rows() {
    const service::OpenParams params = open_params(shape_, suffix(), 0, false);
    store::TenantSnapshot snapshot;
    snapshot.key = store_key(params);
    const tuner::ParamSpace space = params.make_space();
    Values values(context_, seed_combine(seed_, 0x5EED));
    Rng rng(seed_combine(seed_, 0xC0F));
    for (std::size_t i = 0; i < kPriorRows; ++i) {
      const tuner::Configuration config = space.sample_executable(rng);
      const tuner::Evaluation evaluation = values(space, config);
      snapshot.rows.push_back(store::StoreRecord{config, evaluation.value, evaluation.valid});
    }
    mirror_.import_tenants({snapshot});
    return snapshot;
  }

  /// Run sessions until `deadline`; `record` keeps latencies and results.
  void run(Clock::time_point deadline, bool record) {
    while (Clock::now() < deadline) run_session(record);
  }

  std::vector<double> ask_us, tell_us, session_ms;
  std::vector<Clock::time_point> session_done;
  std::size_t tells = 0;
  std::vector<SessionRecord> sessions;
  Phase phase;
  std::string first_error;

 private:
  [[nodiscard]] std::string suffix() const { return "c" + std::to_string(index_); }

  void run_session(bool record) {
    const std::uint64_t session = next_session_++;
    SessionRecord rec;
    rec.params = open_params(shape_, suffix(), seed_combine(seed_, session),
                             shape_.bogp && session % 2 == 1);
    const store::StoreKey key = store_key(rec.params);
    if (rec.params.warm_start) {
      tuner::PriorHistory prior;
      for (const store::StoreRecord& row : mirror_.query(key, kWarmStartRows)) {
        prior.push_back(tuner::PriorObservation{row.config, row.value, row.valid});
      }
      rec.prior = std::make_shared<const tuner::PriorHistory>(std::move(prior));
    }
    const tuner::ParamSpace space = rec.params.make_space();
    Values values(context_, seed_combine(rec.params.seed, 0x7E11));
    std::vector<double> asks, telled;
    const Clock::time_point opened = Clock::now();
    try {
      if (!client_.connected()) {
        client_.connect();
        phase.add(true);
      }
      const std::string id = client_.open(rec.params);
      phase.add(true);
      while (true) {
        const Clock::time_point ask_start = Clock::now();
        const std::optional<tuner::Configuration> config = client_.ask(id);
        asks.push_back(micros_between(ask_start, Clock::now()));
        phase.add(true);
        if (!config) break;
        const tuner::Evaluation evaluation = values(space, *config);
        const Clock::time_point tell_start = Clock::now();
        (void)client_.tell(id, evaluation);
        telled.push_back(micros_between(tell_start, Clock::now()));
        phase.add(true);
        // The daemon appended this row to the tenant before acking.
        if (shape_.bogp) mirror_.append(key, *config, evaluation.value, evaluation.valid);
        rec.told.emplace_back(*config, evaluation);
      }
      rec.remote = client_.result(id).result;
      phase.add(true);
      client_.close_session(id);
      phase.add(true);
    } catch (const std::exception& error) {
      phase.add(false);
      if (first_error.empty()) first_error = error.what();
      client_.disconnect();
      return;
    }
    if (!record) return;
    const Clock::time_point done = Clock::now();
    ask_us.insert(ask_us.end(), asks.begin(), asks.end());
    tell_us.insert(tell_us.end(), telled.begin(), telled.end());
    tells += telled.size();
    session_ms.push_back(seconds_between(opened, done) * 1e3);
    session_done.push_back(done);
    sessions.push_back(std::move(rec));
  }

  std::size_t index_;
  std::uint64_t seed_;
  Shape shape_;
  const harness::BenchmarkContext* context_;
  service::Client client_;
  store::ResultsStore mirror_{store::StoreOptions{}};
  std::uint64_t next_session_ = 0;
};

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  if (a.found_valid != b.found_valid || a.evaluations_used != b.evaluations_used) return false;
  if (!a.found_valid) return true;
  return a.best_config == b.best_config &&
         std::memcmp(&a.best_value, &b.best_value, sizeof a.best_value) == 0;
}

/// The tune_client --verify promise: the remote session equals an
/// in-process search fed the same seed, prior and values.
bool replay_matches(const SessionRecord& rec) {
  const tuner::ParamSpace space = rec.params.make_space();
  std::size_t next = 0;
  bool diverged = false;
  const tuner::Objective replay = [&](const tuner::Configuration& config) {
    if (next >= rec.told.size() || rec.told[next].first != config) {
      diverged = true;
      return tuner::Evaluation{};
    }
    return rec.told[next++].second;
  };
  tuner::Evaluator evaluator(space, replay, rec.params.budget);
  evaluator.set_retry_policy(rec.params.retry);
  Rng rng(rec.params.seed);
  const tuner::TuneResult direct =
      tuner::make_algorithm(rec.params.algorithm, rec.prior)->minimize(space, evaluator, rng);
  return !diverged && next == rec.told.size() && same_result(direct, rec.remote);
}

std::uint64_t status_count(const Json& status, std::string_view block, std::string_view key) {
  const Json* holder = block.empty() ? &status : status.find(block);
  if (holder == nullptr) return 0;
  const Json* value = holder->find(key);
  return value != nullptr && value->is_number() ? value->as_uint64() : 0;
}

Json primary_status(std::uint16_t port) {
  service::Client client(client_config(port, "perfbench-status"));
  client.connect();
  return client.status();
}

/// p50 ask and tell of `sessions` sequential sessions over one connection.
std::pair<double, double> session_latencies(std::uint16_t port, const Shape& shape,
                                            const harness::BenchmarkContext* context,
                                            std::uint64_t seed, std::size_t sessions,
                                            Phase& phase) {
  service::Client client(client_config(port, "perfbench-layer"));
  std::vector<double> asks, tells;
  try {
    client.connect();
    for (std::size_t s = 0; s < sessions; ++s) {
      const service::OpenParams params = open_params(shape, "probe", seed_combine(seed, s), false);
      const tuner::ParamSpace space = params.make_space();
      Values values(context, seed_combine(params.seed, 0x7E11));
      const std::string id = client.open(params);
      while (true) {
        Clock::time_point start = Clock::now();
        const auto proposal = client.ask(id);
        asks.push_back(micros_between(start, Clock::now()));
        if (!proposal) break;
        const tuner::Evaluation evaluation = values(space, *proposal);
        start = Clock::now();
        (void)client.tell(id, evaluation);
        tells.push_back(micros_between(start, Clock::now()));
      }
      client.close_session(id);
      phase.add(true);
    }
  } catch (const std::exception&) {
    phase.add(false);
  }
  return {median(asks), median(tells)};
}

/// In-process layer replays of the workload's tell path, against the
/// public entry points of session_manager, session_wal, wal_ship, store and
/// protocol, plus the in-process ask/tell inversion.
void trace_layers(const ServeArgs& args, const Shape& shape,
                  const harness::BenchmarkContext* context, Report& report, Trace& trace) {
  Phase& phase = report.phase("trace");
  namespace fs = std::filesystem;
  const fs::path scratch = args.scratch_dir;
  fs::create_directories(scratch);
  // The tell-path layers replay serve-tell's session shape: tell cost does
  // not depend on the algorithm, and rs keeps the replay short.
  const Shape tell_shape = shape_of("serve-tell");
  const service::OpenParams params = open_params(tell_shape, "layer", args.seed, false);
  const tuner::ParamSpace space = params.make_space();

  {
    ScopedSpan span(&trace, "service.router", Trace::kNone, 0);
    const std::size_t sessions = shape.bogp ? 1 : 16;
    const auto routed = session_latencies(args.router_port, shape, context, args.seed,
                                          sessions, phase);
    const auto direct = session_latencies(args.primary_port, shape, context, args.seed,
                                          sessions, phase);
    report.layer("service.router.ask_us", routed.first);
    report.layer("service.router.tell_us", routed.second);
    report.layer("service.server.ask_us", direct.first);
    report.layer("service.server.tell_us", direct.second);
  }

  {
    // Encode plus decode of one tell request frame and its reply frame.
    ScopedSpan span(&trace, "service.protocol", Trace::kNone, 1);
    Rng rng(args.seed);
    const tuner::Configuration config = space.sample(rng);
    const tuner::Evaluation evaluation = synthetic(space, config);
    std::vector<double> batch_us;
    std::size_t sink = 0;
    constexpr std::size_t kBatch = 100;
    for (std::size_t b = 0; b < kLayerOps; ++b) {
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        Json request = Json::object();
        request.set("op", "tell");
        request.set("session", "s1");
        request.set("seq", static_cast<std::uint64_t>(i + 1));
        service::encode_evaluation_into(request, evaluation);
        const Json decoded = Json::parse(request.dump());
        const tuner::Evaluation back = service::decode_evaluation(decoded);
        Json reply = service::make_ok();
        reply.set("remaining", static_cast<std::uint64_t>(i));
        sink += Json::parse(reply.dump()).find("remaining")->as_uint64() + back.valid;
      }
      batch_us.push_back(micros_between(start, Clock::now()) / kBatch);
    }
    phase.add(sink > 0);
    report.layer("service.protocol.codec_us", median(batch_us));
  }

  // An in-process SessionManager with the daemon's WAL, store and ship
  // configuration, shipping to a standby of its own; no sockets in front.
  {
    ScopedSpan span(&trace, "service.session_manager", Trace::kNone, 2);
    service::SessionLimits limits;
    limits.state_dir = (scratch / "manager").string();
    limits.ship.port = args.probe_standby_port;
    auto store = std::make_shared<store::ResultsStore>(
        store::StoreOptions{(scratch / "manager-store").string()});
    store->load();
    service::SessionManager manager(limits, store);
    manager.connect_shipper();
    const auto tell_loop = [&](std::size_t caller, std::vector<double>& out) {
      service::OpenParams one = open_params(tell_shape, "m" + std::to_string(caller),
                                            seed_combine(args.seed, caller), false);
      one.budget = kLayerOps;
      const tuner::ParamSpace one_space = one.make_space();
      const std::string id = manager.open(one);
      std::uint64_t seq = 0;
      while (const auto config = manager.ask(id)) {
        const tuner::Evaluation evaluation = synthetic(one_space, *config);
        const Clock::time_point start = Clock::now();
        (void)manager.tell(id, evaluation, ++seq);
        out.push_back(micros_between(start, Clock::now()));
      }
      manager.close(id);
    };
    // Caller 0 runs alone, then callers 1..kConnections run together; each
    // records its own failure so no exception leaves a thread.
    std::vector<double> single;
    std::vector<std::vector<double>> concurrent(kConnections);
    std::vector<std::string> errors(kConnections + 1);
    const auto guarded = [&](std::size_t caller, std::vector<double>& out) {
      try {
        tell_loop(caller, out);
      } catch (const std::exception& error) {
        errors[caller] = error.what();
      }
    };
    guarded(0, single);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kConnections; ++c) {
      callers.emplace_back([&, c] { guarded(c + 1, concurrent[c]); });
    }
    for (std::thread& caller : callers) caller.join();
    for (const std::string& error : errors) {
      phase.add(error.empty());
      if (!error.empty()) report.note("session_manager replay failed: " + error);
    }
    std::vector<double> merged;
    for (const auto& one : concurrent) merged.insert(merged.end(), one.begin(), one.end());
    report.layer("service.session_manager.tell_us", median(single));
    report.layer("service.session_manager.tell_wait_us", median(merged) - median(single));
  }

  {
    ScopedSpan span(&trace, "service.session_wal", Trace::kNone, 3);
    const auto wal = service::SessionWal::create((scratch / "probe.wal").string(), "probe",
                                                 "", params);
    std::vector<double> appends;
    Rng rng(args.seed);
    for (std::size_t i = 0; wal != nullptr && i < kLayerOps; ++i) {
      const tuner::Configuration config = space.sample(rng);
      const tuner::Evaluation evaluation = synthetic(space, config);
      const Clock::time_point start = Clock::now();
      const bool ok = wal->append_tell(i + 1, config, evaluation);
      appends.push_back(micros_between(start, Clock::now()));
      phase.add(ok);
    }
    report.layer("service.session_wal.append_us", median(appends));
  }

  {
    ScopedSpan span(&trace, "store", Trace::kNone, 4);
    store::ResultsStore store(store::StoreOptions{(scratch / "probe-store").string()});
    store.load();
    const store::StoreKey key = store_key(params);
    std::vector<double> appends;
    for (std::size_t i = 0; i < kLayerOps; ++i) {
      const tuner::Configuration config = {static_cast<int>(1 + i % 128),
                                           static_cast<int>(1 + i / 128), 0};
      const tuner::Evaluation evaluation = synthetic(space, config);
      const Clock::time_point start = Clock::now();
      const bool fresh = store.append(key, config, evaluation.value, evaluation.valid);
      appends.push_back(micros_between(start, Clock::now()));
      phase.add(fresh);
    }
    report.layer("store.append_us", median(appends));
    // The warm prior query: the newest kWarmStartRows rows of one tenant.
    std::vector<double> queries;
    for (std::size_t i = 0; i < 10 * kLayerOps; ++i) {
      const Clock::time_point start = Clock::now();
      const std::size_t rows = store.query(key, kWarmStartRows).size();
      queries.push_back(micros_between(start, Clock::now()));
      if (rows == 0) phase.add(false);
    }
    report.layer("store.query_us", median(queries));
  }

  {
    // Ship a live session's records to the layer standby, one ship_tell per
    // tell, proposals coming from an in-process session of the same shape.
    ScopedSpan span(&trace, "service.wal_ship", Trace::kNone, 5);
    service::ShipConfig ship;
    ship.port = args.probe_standby_port;
    ship.state_dir = (scratch / "ship").string();
    fs::create_directories(ship.state_dir);
    service::WalShipper shipper(ship);
    service::OpenParams shipped = params;
    shipped.budget = kLayerOps;
    const std::string id = "perfbench-ship";
    std::vector<double> ships;
    if (shipper.connect_now() && shipper.ship_open(id, "", shipped)) {
      const tuner::ParamSpace ship_space = shipped.make_space();
      tuner::AskTellSession session(ship_space, tuner::make_algorithm(shipped.algorithm),
                                    shipped.budget, shipped.seed, shipped.retry);
      std::uint64_t seq = 0;
      while (const auto config = session.ask()) {
        const tuner::Evaluation evaluation = synthetic(ship_space, *config);
        const Clock::time_point start = Clock::now();
        const bool acked = shipper.ship_tell(id, ++seq, *config, evaluation);
        ships.push_back(micros_between(start, Clock::now()));
        phase.add(acked);
        session.tell(evaluation);
      }
      (void)shipper.ship_close(id);
    } else {
      phase.add(false);
    }
    report.layer("service.wal_ship.ship_tell_us", median(ships));
  }

  {
    // The ask/tell inversion in-process, no durability: one bogp session of
    // the serve-bogp-warm shape, measured with the simulator, on every
    // workload, so the GP ask path and the pipelined ask stay measured.
    ScopedSpan span(&trace, "tuner.asktell", Trace::kNone, 6);
    std::unique_ptr<harness::BenchmarkContext> own_context;
    if (context == nullptr) own_context = make_harris_context(args.seed);
#if __has_include("tuner/pipeline.hpp")
    const tuner::AskPipelineStats before = tuner::ask_pipeline_totals();
#endif
    std::vector<double> asks;
    {
      const service::OpenParams one =
          open_params(shape_of("serve-bogp-warm"), "asktell", args.seed, false);
      const tuner::ParamSpace one_space = one.make_space();
      Values values(context != nullptr ? context : own_context.get(),
                    seed_combine(one.seed, 0x7E11));
      tuner::AskTellSession session(one_space, tuner::make_algorithm(one.algorithm),
                                    one.budget, one.seed, one.retry);
      while (true) {
        const Clock::time_point start = Clock::now();
        const auto config = session.ask();
        asks.push_back(micros_between(start, Clock::now()));
        if (!config) break;
        session.tell(values(one_space, *config));
      }
      phase.add(session.result().found_valid);
    }
    report.layer("tuner.asktell.ask_us", median(asks));
    double overlap = 0.0;
    double inline_ratio = 0.0;
#if __has_include("tuner/pipeline.hpp")
    const tuner::AskPipelineStats after = tuner::ask_pipeline_totals();
    const double batches = static_cast<double>(after.batches - before.batches);
    overlap = batches > 0 ? static_cast<double>(after.overlapped - before.overlapped) / batches
                          : 0.0;
    inline_ratio = static_cast<double>(after.inline_runs - before.inline_runs) /
                   static_cast<double>(asks.size());
#endif
    report.layer("tuner.pipeline.overlap_ratio", overlap);
    report.layer("tuner.pipeline.inline_ratio", inline_ratio);
  }
}

}  // namespace

void run_serve_workload(const ServeArgs& args, Report& report) {
  const Shape shape = shape_of(args.workload);

  // Set-up: the simulator context values are measured with, and the warm
  // tenants' store seed, imported over the wire.
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<harness::BenchmarkContext> context;
  if (shape.bogp) context = make_harris_context(args.seed);
  std::vector<std::unique_ptr<Connection>> connections;
  for (std::size_t c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<Connection>(
        c, args.router_port, seed_combine(args.seed, c), shape, context.get()));
  }
  if (shape.bogp) {
    std::vector<store::TenantSnapshot> seed;
    for (auto& connection : connections) seed.push_back(connection->seed_rows());
    service::Client seeder(client_config(args.router_port, "perfbench-seed"));
    try {
      seeder.connect();
      const std::size_t stored = seeder.store_import(seed);
      report.phase("setup").add(stored == kConnections * kPriorRows);
    } catch (const std::exception& error) {
      report.phase("setup").add(false);
      report.note(std::string("store seeding failed: ") + error.what());
    }
  }
  report.metric("load_setup_s", seconds_between(setup_start, Clock::now()), 1);

  const auto drive = [&](double seconds, bool record) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (auto& connection : connections) {
      threads.emplace_back([&, record] { connection->run(deadline, record); });
    }
    for (std::thread& thread : threads) thread.join();
  };

  // Warm-up, excluded from timing.
  drive(args.warmup_seconds, false);
  for (auto& connection : connections) {
    report.phase("warmup").merge(connection->phase);
    connection->phase = {};
  }

  // Measured window, bracketed by one status op and one /proc read each.
  const int pids[3] = {args.primary_pid, args.standby_pid, args.router_pid};
  ProcSample proc_start[3];
  Json status_start;
  try {
    status_start = primary_status(args.primary_port);
  } catch (const std::exception&) {
    report.phase("window").add(false);
  }
  for (int i = 0; i < 3; ++i) proc_start[i] = read_proc(pids[i]);
  const Clock::time_point window_start = Clock::now();
  drive(args.seconds, true);
  const Clock::time_point window_end = Clock::now();
  ProcSample proc_end[3];
  for (int i = 0; i < 3; ++i) proc_end[i] = read_proc(pids[i]);
  Json status_end;
  try {
    status_end = primary_status(args.primary_port);
  } catch (const std::exception&) {
    report.phase("window").add(false);
  }

  std::vector<double> ask_us, tell_us, session_ms;
  std::vector<Clock::time_point> done;
  std::vector<const SessionRecord*> sessions;
  std::size_t tells = 0;
  for (auto& connection : connections) {
    ask_us.insert(ask_us.end(), connection->ask_us.begin(), connection->ask_us.end());
    tell_us.insert(tell_us.end(), connection->tell_us.begin(), connection->tell_us.end());
    session_ms.insert(session_ms.end(), connection->session_ms.begin(),
                      connection->session_ms.end());
    done.insert(done.end(), connection->session_done.begin(), connection->session_done.end());
    for (const SessionRecord& rec : connection->sessions) sessions.push_back(&rec);
    tells += connection->tells;
    report.phase("window").merge(connection->phase);
    if (!connection->first_error.empty()) report.note("error: " + connection->first_error);
  }
  std::sort(done.begin(), done.end());
  // Consecutive campaigns of shape.campaign_sessions completed sessions.
  std::vector<double> campaign_s;
  Clock::time_point campaign_start = window_start;
  for (std::size_t end = shape.campaign_sessions; end <= done.size();
       end += shape.campaign_sessions) {
    campaign_s.push_back(seconds_between(campaign_start, done[end - 1]));
    campaign_start = done[end - 1];
  }
  const double window_s = seconds_between(window_start, window_end);
  report.metric("campaign_s", median(campaign_s), campaign_s.size());
  report.metric("evals_per_s", static_cast<double>(tells) / window_s, tells);
  report.metric("session_p50_ms", median(session_ms), session_ms.size());
  report.metric("ask_p50_us", percentile(ask_us, 0.5), ask_us.size());
  report.metric("ask_p90_us", percentile(ask_us, 0.9), ask_us.size());
  report.metric("tell_p50_us", percentile(tell_us, 0.5), tell_us.size());
  report.metric("tell_p90_us", percentile(tell_us, 0.9), tell_us.size());
  report.metric("peak_rss_mb", proc_end[0].peak_rss_mb, 1);
  report.note("serve ask p99 " + std::to_string(percentile(ask_us, 0.99)) + " us (n=" +
              std::to_string(ask_us.size()) + "), tell p99 " +
              std::to_string(percentile(tell_us, 0.99)) + " us (n=" +
              std::to_string(tell_us.size()) + ")");

  // Daemon counters over the window, from /proc and the status op.
  const double per_tell = tells > 0 ? 1.0 / static_cast<double>(tells) : 0.0;
  const char* roles[3] = {"primary", "standby", "router"};
  for (int i = 0; i < 3; ++i) {
    report.layer(std::string("service.") + roles[i] + ".cpu_ms_per_ktell",
                 (proc_end[i].cpu_ms - proc_start[i].cpu_ms) * 1000.0 * per_tell);
  }
  for (int i = 0; i < 2; ++i) {
    report.layer(std::string("service.") + roles[i] + ".write_bytes_per_tell",
                 static_cast<double>(proc_end[i].write_bytes - proc_start[i].write_bytes) *
                     per_tell);
  }
  report.layer("service.primary.write_calls_per_tell",
               static_cast<double>(proc_end[0].write_calls - proc_start[0].write_calls) *
                   per_tell);
  if (status_start.is_object() && status_end.is_object()) {
    const auto delta = [&](std::string_view block, std::string_view key) {
      return static_cast<double>(status_count(status_end, block, key) -
                                 status_count(status_start, block, key));
    };
    const double counters[5] = {delta("", "duplicate_tells"), delta("", "wal_errors"),
                                delta("store", "append_errors"), delta("ship", "failures"),
                                delta("ship", "reconnects")};
    const char* names[5] = {"duplicate_tells", "wal_errors", "store_errors", "ship_failures",
                            "ship_reconnects"};
    for (int i = 0; i < 5; ++i) report.layer(std::string("service.status.") + names[i], counters[i]);
    report.check("daemon reports no wal, store or ship errors",
                 counters[1] + counters[2] + counters[3] == 0.0);
    report.check("daemon acknowledged the window's tells",
                 delta("", "tells") == static_cast<double>(tells));
  }

  // Check every measured session against its in-process replay.
  std::vector<char> matched(sessions.size(), 0);
  repro::parallel_for(0, sessions.size(),
                      [&](std::size_t i) { matched[i] = replay_matches(*sessions[i]); });
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    report.phase("check").add(matched[i] != 0);
    mismatches += matched[i] == 0;
  }
  if (mismatches > 0) {
    report.note(std::to_string(mismatches) + " sessions differ from their in-process replay");
  }

  if (args.trace) {
    Trace trace;
    trace_layers(args, shape, context.get(), report, trace);
    if (!args.trace_path.empty()) trace.write_jsonl(args.trace_path);
  }
}

}  // namespace perfbench
