#include "service/status_codec.hpp"

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "store/results_store.hpp"

namespace repro::service {
namespace {

/// What tunelb does with a row when it merges several daemons' reports.
enum class Merge : std::uint8_t {
  kSum,   ///< a counter: the cluster total (a block or row list: its rows' rules)
  kOr,    ///< a flag: set when any daemon's is
  kKey,   ///< names a list row: rows with equal keys merge, sorted by key
  kKeep,  ///< per-daemon: left out of the roll-up, untouched by a merge
};

/// One row of a field table: the wire key, the struct member it carries,
/// its merge rule, and the flag (if any) without which it is not emitted.
template <class S, class M>
struct Field {
  std::string_view key;
  M S::*member;
  Merge merge;
  bool S::*when = nullptr;
};

/// A nested wire object whose rows are members of the enclosing struct.
template <class S, class... Rows>
struct Block {
  std::string_view key;
  std::tuple<Rows...> rows;
  Merge merge;
  bool S::*when = nullptr;
};
template <class S, class... Rows>
Block(std::string_view, std::tuple<Rows...>, Merge, bool S::*) -> Block<S, Rows...>;

/// Table<T>::rows: T's wire form, one row per key, in wire order.
template <class T>
struct Table;

template <>
struct Table<tuner::FailureCounters> {
  using C = tuner::FailureCounters;
  static constexpr auto rows = std::tuple{
      Field{"ok", &C::ok, Merge::kSum},
      Field{"invalid", &C::invalid, Merge::kSum},
      Field{"transient", &C::transient, Merge::kSum},
      Field{"timeout", &C::timeout, Merge::kSum},
      Field{"crashed", &C::crashed, Merge::kSum},
      Field{"retries", &C::retries, Merge::kSum},
      Field{"retry_successes", &C::retry_successes, Merge::kSum},
      Field{"backoff_us", &C::backoff_us, Merge::kSum},
  };
};

template <>
struct Table<RecoveryStats> {
  using R = RecoveryStats;
  static constexpr auto rows = std::tuple{
      Field{"sessions_recovered", &R::sessions_recovered, Merge::kSum},
      Field{"tells_replayed", &R::tells_replayed, Merge::kSum},
      Field{"sessions_failed", &R::sessions_failed, Merge::kSum},
      Field{"torn_tails", &R::torn_tails, Merge::kSum},
      Field{"closed_discarded", &R::closed_discarded, Merge::kSum},
      Field{"evicted_tombstones", &R::evicted_tombstones, Merge::kSum},
  };
};

template <>
struct Table<ShipCounters> {
  using C = ShipCounters;
  static constexpr auto rows = std::tuple{
      Field{"records_shipped", &C::records_shipped, Merge::kSum},
      Field{"duplicates_acked", &C::duplicates_acked, Merge::kSum},
      Field{"resyncs", &C::resyncs, Merge::kSum},
      Field{"reconnects", &C::reconnects, Merge::kSum},
      Field{"failures", &C::failures, Merge::kSum},
      Field{"retargets", &C::retargets, Merge::kSum},
      Field{"store_rows_resynced", &C::store_rows_resynced, Merge::kSum},
  };
};

template <>
struct Table<StatusReport::TenantStatus> {
  using T = StatusReport::TenantStatus;
  static constexpr auto rows = std::tuple{
      Field{"tenant", &T::tenant, Merge::kKey},
      Field{"sessions", &T::sessions, Merge::kSum},
      Field{"inflight_tells", &T::inflight_tells, Merge::kSum},
      Field{"queued", &T::queued, Merge::kSum},
  };
};

template <>
struct Table<StatusReport::QuotaReport> {
  using Q = StatusReport::QuotaReport;
  static constexpr auto rows = std::tuple{
      Field{"enabled", &Q::enabled, Merge::kOr},
      Field{"queue_depth", &Q::queue_depth, Merge::kSum},
      Field{"queued", &Q::queued, Merge::kSum},
      Field{"granted", &Q::granted, Merge::kSum},
      Field{"timeouts", &Q::timeouts, Merge::kSum},
      Field{"shed_anonymous", &Q::shed_anonymous, Merge::kSum},
      Field{"shed_over_quota", &Q::shed_over_quota, Merge::kSum},
      Field{"shed_queue_full", &Q::shed_queue_full, Merge::kSum},
      Field{"tell_pushbacks", &Q::tell_pushbacks, Merge::kSum},
      Field{"tenants", &Q::tenants, Merge::kSum},
  };
};

template <>
struct Table<SessionInfo> {
  using I = SessionInfo;
  static constexpr auto rows = std::tuple{
      Field{"id", &I::id, Merge::kKeep},
      Field{"algorithm", &I::algorithm, Merge::kKeep},
      Field{"budget", &I::budget, Merge::kKeep},
      Field{"asks", &I::asks, Merge::kKeep},
      Field{"tells", &I::tells, Merge::kKeep},
      Field{"finished", &I::finished, Merge::kKeep},
      Field{"idle_ms", &I::idle_ms, Merge::kKeep},
  };
};

// tunelb rolls up the session counters and the quota block; everything else
// stays in each shard's own embedded status.
template <>
struct Table<StatusReport> {
  using S = StatusReport;
  static constexpr auto rows = std::tuple{
      Field{"server", &S::server, Merge::kKeep},
      Field{"version", &S::version, Merge::kKeep},
      Field{"live_sessions", &S::live_sessions, Merge::kSum},
      Field{"opened", &S::opened, Merge::kSum},
      Field{"closed", &S::closed, Merge::kSum},
      Field{"evicted", &S::evicted, Merge::kSum},
      Field{"finished", &S::finished, Merge::kSum},
      Field{"asks", &S::asks, Merge::kSum},
      Field{"tells", &S::tells, Merge::kSum},
      Field{"duplicate_tells", &S::duplicate_tells, Merge::kSum},
      Field{"tallies", &S::tallies, Merge::kKeep},
      Field{"wal_enabled", &S::wal_enabled, Merge::kKeep},
      Field{"wal_errors", &S::wal_errors, Merge::kKeep, &S::wal_enabled},
      Field{"recovery", &S::recovery, Merge::kKeep, &S::wal_enabled},
      Field{"store_enabled", &S::store_enabled, Merge::kKeep},
      Block{"store",
            std::tuple{Field{"records", &S::store_records, Merge::kSum},
                       Field{"tenants", &S::store_tenants, Merge::kSum},
                       Field{"append_errors", &S::store_errors, Merge::kSum},
                       Field{"io_errors", &S::store_io_errors, Merge::kSum}},
            Merge::kKeep, &S::store_enabled},
      Field{"ship_enabled", &S::ship_enabled, Merge::kKeep},
      Field{"ship_state", &S::ship_state, Merge::kKeep},
      Field{"ship_connected", &S::ship_connected, Merge::kKeep, &S::ship_enabled},
      Field{"ship_fenced", &S::ship_fenced, Merge::kKeep, &S::ship_enabled},
      Field{"ship_target", &S::ship_target, Merge::kKeep, &S::ship_enabled},
      Field{"ship", &S::ship, Merge::kKeep, &S::ship_enabled},
      Field{"quotas", &S::quotas, Merge::kSum},
      Field{"role", &S::role, Merge::kKeep},
      Field{"promotions", &S::promotions, Merge::kKeep},
      Field{"demotions", &S::demotions, Merge::kKeep},
      Field{"draining", &S::draining, Merge::kKeep},
      Field{"active_connections", &S::active_connections, Merge::kKeep},
      Field{"connections_accepted", &S::connections_accepted, Merge::kKeep},
      Field{"connections_reaped", &S::connections_reaped, Merge::kKeep},
      Field{"connections_refused", &S::connections_refused, Merge::kKeep},
      Field{"sessions", &S::sessions, Merge::kKeep},
  };
};

// tunelb sums the counters; the directory, torn-tail flag and digest belong
// to one daemon's store and stay in its "shards" row.
template <>
struct Table<store::StoreStats> {
  using S = store::StoreStats;
  static constexpr bool S::*kIfStore = &S::enabled;
  static constexpr auto rows = std::tuple{
      Field{"store_enabled", &S::enabled, Merge::kOr},
      Field{"dir", &S::dir, Merge::kKeep, kIfStore},
      Field{"records", &S::records, Merge::kSum, kIfStore},
      Field{"tenants", &S::tenants, Merge::kSum, kIfStore},
      Field{"appends", &S::appends, Merge::kSum, kIfStore},
      Field{"duplicates", &S::duplicates, Merge::kSum, kIfStore},
      Field{"rejected", &S::rejected, Merge::kSum, kIfStore},
      Field{"evictions", &S::evictions, Merge::kSum, kIfStore},
      Field{"compactions", &S::compactions, Merge::kSum, kIfStore},
      Field{"io_errors", &S::io_errors, Merge::kSum, kIfStore},
      Field{"log_records", &S::log_records, Merge::kSum, kIfStore},
      Field{"log_bytes", &S::log_bytes, Merge::kSum, kIfStore},
      Field{"loaded_records", &S::loaded_records, Merge::kSum, kIfStore},
      Field{"torn_tail", &S::torn_tail, Merge::kKeep, kIfStore},
      Field{"digest", &S::digest, Merge::kKeep, kIfStore},
  };
};

// ---------------------------------------------------------------------------
// The one encoder, decoder and merge over the tables
// ---------------------------------------------------------------------------

template <class T>
concept Tabled = requires { Table<T>::rows; };

template <class T>
inline constexpr bool kIsRowList = false;
template <Tabled T>
inline constexpr bool kIsRowList<std::vector<T>> = true;

template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <class Rows, class Fn>
void for_each_row(const Rows& rows, Fn&& fn) {
  std::apply([&fn](const auto&... row) { (fn(row), ...); }, rows);
}

/// Emitted by this encoding? The roll-up takes every merged row, gated or
/// not; the full encoding takes every row whose gate (if any) is set.
template <class Row, class S>
bool emitted(const Row& row, const S& report, bool rollup) {
  return rollup ? row.merge != Merge::kKeep : row.when == nullptr || report.*row.when;
}

template <class T>
void encode_rows(const T& report, Json& out, bool rollup);

template <class M>
Json to_json(const M& value, bool rollup) {
  if constexpr (Tabled<M>) {
    Json object = Json::object();
    encode_rows(value, object, rollup);
    return object;
  } else if constexpr (kIsRowList<M>) {
    Json array = Json::array();
    for (const auto& row : value) array.push_back(to_json(row, rollup));
    return array;
  } else if constexpr (std::is_same_v<M, ShipState>) {
    return Json(to_string(value));
  } else {
    return Json(value);
  }
}

template <class S, class M>
void encode_row(const S& report, const Field<S, M>& row, Json& out, bool rollup) {
  if (!emitted(row, report, rollup)) return;
  const M& value = report.*row.member;
  if constexpr (kIsOptional<M>) {
    if (value) out.set(std::string(row.key), to_json(*value, rollup));
  } else {
    out.set(std::string(row.key), to_json(value, rollup));
  }
}

template <class S, class... Rows>
void encode_row(const S& report, const Block<S, Rows...>& block, Json& out, bool rollup) {
  if (!emitted(block, report, rollup)) return;
  Json object = Json::object();
  for_each_row(block.rows, [&](const auto& row) { encode_row(report, row, object, rollup); });
  out.set(std::string(block.key), std::move(object));
}

template <class T>
void encode_rows(const T& report, Json& out, bool rollup) {
  for_each_row(Table<T>::rows, [&](const auto& row) { encode_row(report, row, out, rollup); });
}

template <class T>
void decode_rows(const Json& in, T& report, bool strict);

/// Read `field` into `out`; false (with `out` untouched) when it holds
/// another type.
template <class M>
bool read(const Json& field, M& out, bool strict) {
  if constexpr (Tabled<M>) {
    if (!field.is_object()) return false;
    decode_rows(field, out, strict);
  } else if constexpr (kIsRowList<M>) {
    if (!field.is_array()) return false;
    out.clear();
    for (const Json& item : field.as_array()) decode_rows(item, out.emplace_back(), strict);
  } else if constexpr (kIsOptional<M>) {
    typename M::value_type value{};
    if (!read(field, value, strict)) return false;
    out = std::move(value);
  } else if constexpr (std::is_same_v<M, ShipState>) {
    if (!field.is_string()) return false;
    for (const ShipState state : {ShipState::kDisabled, ShipState::kDown, ShipState::kCatchingUp,
                                  ShipState::kHot, ShipState::kFenced}) {
      if (field.as_string() == to_string(state)) {
        out = state;
        return true;
      }
    }
    return false;
  } else if constexpr (std::is_same_v<M, bool>) {
    if (!field.is_bool()) return false;
    out = field.as_bool();
  } else if constexpr (std::is_same_v<M, double>) {
    if (!field.is_number()) return false;
    out = field.as_double();
  } else if constexpr (std::is_same_v<M, std::string>) {
    if (!field.is_string()) return false;
    out = field.as_string();
  } else {
    static_assert(std::is_integral_v<M>, "a field table row of an unsupported type");
    const bool count = field.type() == Json::Type::kUint ||
                       (field.type() == Json::Type::kInt && field.as_int64() >= 0);
    if (!count) return false;
    out = static_cast<M>(field.as_uint64());
  }
  return true;
}

/// A strict decode's verdict on a key it could not read.
[[noreturn]] void unreadable(const Json& in, std::string_view key) {
  (void)require(in, key);  // throws "missing field: <key>"
  throw ProtocolError(ErrorCode::kBadRequest,
                      "field has the wrong type: " + std::string(key));
}

template <class S, class M>
void decode_row(const Json& in, const Field<S, M>& row, S& report, bool strict) {
  const Json* field = in.find(row.key);
  if (field != nullptr && read(*field, report.*row.member, strict)) return;
  if (strict) unreadable(in, row.key);
}

template <class S, class... Rows>
void decode_row(const Json& in, const Block<S, Rows...>& block, S& report, bool strict) {
  const Json* object = in.find(block.key);
  if (object == nullptr || !object->is_object()) return;
  for_each_row(block.rows, [&](const auto& row) { decode_row(*object, row, report, strict); });
}

template <class T>
void decode_rows(const Json& in, T& report, bool strict) {
  if (!in.is_object()) {
    if (strict) throw ProtocolError(ErrorCode::kBadRequest, "report is not an object");
    return;
  }
  for_each_row(Table<T>::rows, [&](const auto& row) { decode_row(in, row, report, strict); });
}

template <class T>
void merge_rows(T& into, const T& from);

/// The kKey member of a list row ("" when its table has none).
template <class T>
std::string_view key_of(const T& row) {
  std::string_view key;
  for_each_row(Table<T>::rows, [&](const auto& field) {
    if constexpr (requires { { row.*field.member } -> std::convertible_to<std::string_view>; }) {
      if (field.merge == Merge::kKey) key = row.*field.member;
    }
  });
  return key;
}

template <class T>
void merge_list(std::vector<T>& into, const std::vector<T>& from) {
  for (const T& row : from) {
    const auto same = std::find_if(into.begin(), into.end(),
                                   [&row](const T& mine) { return key_of(mine) == key_of(row); });
    if (same == into.end()) {
      into.push_back(row);
    } else {
      merge_rows(*same, row);
    }
  }
  std::sort(into.begin(), into.end(),
            [](const T& a, const T& b) { return key_of(a) < key_of(b); });
}

template <class S, class M>
void merge_row(S& into, const S& from, const Field<S, M>& row) {
  M& mine = into.*row.member;
  const M& theirs = from.*row.member;
  if (row.merge == Merge::kOr) {
    if constexpr (std::is_same_v<M, bool>) mine = mine || theirs;
  } else if (row.merge == Merge::kSum) {
    if constexpr (Tabled<M>) {
      merge_rows(mine, theirs);
    } else if constexpr (kIsRowList<M>) {
      merge_list(mine, theirs);
    } else if constexpr (std::is_arithmetic_v<M>) {
      mine += theirs;
    }
  }
}

template <class S, class... Rows>
void merge_row(S& into, const S& from, const Block<S, Rows...>& block) {
  if (block.merge == Merge::kKeep) return;
  for_each_row(block.rows, [&](const auto& row) { merge_row(into, from, row); });
}

template <class T>
void merge_rows(T& into, const T& from) {
  for_each_row(Table<T>::rows, [&](const auto& row) { merge_row(into, from, row); });
}

}  // namespace

template <class Report>
void encode_report(const Report& report, Json& out) {
  encode_rows(report, out, /*rollup=*/false);
}

template <class Report>
void encode_rollup(const Report& report, Json& out) {
  encode_rows(report, out, /*rollup=*/true);
}

template <class Report>
Report decode_report(const Json& object, Decode mode) {
  Report report;
  decode_rows(object, report, mode == Decode::kStrict);
  return report;
}

template <class Report>
void merge_report(Report& into, const Report& from) {
  merge_rows(into, from);
}

template void encode_report(const tuner::FailureCounters&, Json&);
template void encode_report(const StatusReport&, Json&);
template void encode_report(const store::StoreStats&, Json&);
template void encode_rollup(const StatusReport&, Json&);
template void encode_rollup(const store::StoreStats&, Json&);
template tuner::FailureCounters decode_report<tuner::FailureCounters>(const Json&, Decode);
template StatusReport decode_report<StatusReport>(const Json&, Decode);
template store::StoreStats decode_report<store::StoreStats>(const Json&, Decode);
template void merge_report(StatusReport&, const StatusReport&);
template void merge_report(store::StoreStats&, const store::StoreStats&);

}  // namespace repro::service
