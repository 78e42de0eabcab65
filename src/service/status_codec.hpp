#pragma once
// One codec for the counter reports on the service wire: the daemon's
// `status` reply (StatusReport), the `store_stats` reply (store::StoreStats)
// and a `result`'s counters (tuner::FailureCounters).
//
// status_codec.cpp declares each report once, as a field table: one row per
// wire key, naming the struct member it carries and what tunelb does with
// it when it rolls several daemons' reports into one: sum it, OR it, or
// leave it per-daemon. Encoding, decoding and merging are written once over
// those tables, so tuned encodes, tunelb merges, and the WAL shipper and
// tune_client read exactly the keys the tables list, in their order.

#include "common/json.hpp"

namespace repro::service {

/// How decode_report treats a key it cannot read.
enum class Decode {
  kLenient,  ///< a missing or mistyped key reads as the member's default (0)
  kStrict,   ///< a missing or mistyped key throws ProtocolError{kBadRequest}
};

/// Append every row of `report` to the object `out`, in table order. A row
/// gated on a flag is left out while the flag is false.
template <class Report>
void encode_report(const Report& report, Json& out);

/// Append the rows tunelb rolls up, every row that is not per-daemon, to
/// `out`. The roll-up ignores gates: a cluster total of 0 is an answer.
template <class Report>
void encode_rollup(const Report& report, Json& out);

/// Read a report back from its wire object.
template <class Report>
[[nodiscard]] Report decode_report(const Json& object, Decode mode = Decode::kLenient);

/// Fold `from` into `into`: counters sum, flags OR, per-tenant rows merge by
/// name in sorted order, and per-daemon rows keep `into`'s value.
template <class Report>
void merge_report(Report& into, const Report& from);

}  // namespace repro::service
