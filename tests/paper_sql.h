#ifndef PTLDB_TESTS_PAPER_SQL_H_
#define PTLDB_TESTS_PAPER_SQL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "pgsql/sql_writer.h"
#include "ptldb/ptldb.h"
#include "sql/interpreter.h"

namespace ptldb {

/// The paper's own text as a test oracle: the literal SQL of Codes 1-4
/// (pgsql/sql_writer.h), run by the embedded SQL interpreter over a
/// PtldbDatabase's heap tables, with answers typed like the facade's.
/// The interpreter shares no code with the compiled VM above the table
/// reader, so agreement pins the facade to the paper's queries.
///
/// The literal SQL has no "stay put" rule for a querier standing at a
/// target, so set queries must draw q outside T. SQL folds unquoted
/// identifiers to lower case, so the set name must be lower case. The
/// heap tables exist on both label tiers, so the oracle serves
/// compressed databases too.
class PaperSql {
 public:
  PaperSql(PtldbDatabase* db, std::string set_name)
      : db_(db), set_(std::move(set_name)), interpreter_(db->engine()) {}

  Result<EventTime> Ea(StopId s, StopId g, EventTime t) {
    return Time(V2vSql(V2vKind::kEarliestArrival), {s, g, t.raw_seconds()},
                EventTime::Infinity());
  }
  Result<EventTime> Ld(StopId s, StopId g, EventTime t_end) {
    return Time(V2vSql(V2vKind::kLatestDeparture),
                {s, g, t_end.raw_seconds()}, EventTime::NegInfinity());
  }
  Result<Duration> Sd(StopId s, StopId g, EventTime t, EventTime t_end) {
    auto v = Scalar(V2vSql(V2vKind::kShortestDuration),
                    {s, g, t.raw_seconds(), t_end.raw_seconds()});
    if (!v.ok()) return v.status();
    if (*v == kNull) return Duration::Infinity();
    return std::min(Duration::FromSeconds(*v), Duration::Infinity());
  }

  Result<std::vector<StopTimeResult>> EaKnnNaive(StopId q, EventTime t,
                                                 uint32_t k) {
    return Rows(EaKnnNaiveSql(set_), {q, t.raw_seconds(), k});
  }
  Result<std::vector<StopTimeResult>> LdKnnNaive(StopId q, EventTime t,
                                                 uint32_t k) {
    return Rows(LdKnnNaiveSql(set_), {q, t.raw_seconds(), k});
  }
  Result<std::vector<StopTimeResult>> EaKnn(StopId q, EventTime t,
                                            uint32_t k) {
    return Rows(EaKnnSql(set_), {q, t.raw_seconds(), k});
  }
  Result<std::vector<StopTimeResult>> LdKnn(StopId q, EventTime t,
                                            uint32_t k) {
    return Rows(LdKnnSql(set_), {q, t.raw_seconds(), k, ArrHour(t)});
  }
  Result<std::vector<StopTimeResult>> EaOtm(StopId q, EventTime t) {
    return Rows(EaOtmSql(set_), {q, t.raw_seconds()});
  }
  Result<std::vector<StopTimeResult>> LdOtm(StopId q, EventTime t) {
    return Rows(LdOtmSql(set_), {q, t.raw_seconds(), ArrHour(t)});
  }

 private:
  static constexpr int64_t kNull = INT64_MIN;

  // The facade's arrival bucket: deadlines past the indexed horizon clamp
  // to the set's last bucket.
  int64_t ArrHour(EventTime t) const {
    for (const auto& info : db_->target_sets()) {
      if (info.name == set_) {
        return std::min(SaturatingBucketOf(t, info.bucket_seconds),
                        info.max_bucket);
      }
    }
    return 0;
  }

  Result<int64_t> Scalar(const std::string& sql,
                         const std::vector<int64_t>& params) {
    auto r = interpreter_.Execute(sql, params);
    if (!r.ok()) return r.status();
    if (r->rows.empty() || SqlIsNull(r->rows[0][0])) return kNull;
    return std::get<int64_t>(r->rows[0][0]);
  }

  Result<EventTime> Time(const std::string& sql,
                         const std::vector<int64_t>& params,
                         EventTime empty) {
    auto v = Scalar(sql, params);
    if (!v.ok()) return v.status();
    return *v == kNull ? empty : EventTime::FromSeconds(*v);
  }

  Result<std::vector<StopTimeResult>> Rows(
      const std::string& sql, const std::vector<int64_t>& params) {
    auto r = interpreter_.Execute(sql, params);
    if (!r.ok()) return r.status();
    std::vector<StopTimeResult> out;
    for (const auto& row : r->rows) {
      out.push_back({static_cast<StopId>(std::get<int64_t>(row[0])),
                     EventTime::FromSeconds(std::get<int64_t>(row[1]))});
    }
    return out;
  }

  PtldbDatabase* db_;
  std::string set_;
  SqlInterpreter interpreter_;
};

}  // namespace ptldb

#endif  // PTLDB_TESTS_PAPER_SQL_H_
