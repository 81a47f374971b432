#ifndef PTLDB_PGSQL_SQL_WRITER_H_
#define PTLDB_PGSQL_SQL_WRITER_H_

#include <string>
#include <vector>

#include "common/time_util.h"
#include "timetable/types.h"
#include "ttl/label.h"

namespace ptldb {

/// Emits the pure-SQL side of PTLDB: the DDL, COPY payloads and the exact
/// queries of Codes 1-4 in the paper, targeting stock PostgreSQL (array
/// columns + UNNEST, no extensions). Everything here is plain text — feed
/// it to psql or through PgConnection (pgsql/pg_client.h).

/// Vertex-to-vertex query flavors of Code 1.
enum class V2vKind { kEarliestArrival, kLatestDeparture, kShortestDuration };

/// CREATE TABLE statements for lout and lin (Section 3.1).
std::string LabelTableDdl();

/// CREATE TABLE statements for the five derived tables of one target set.
std::string TargetSetDdl(const std::string& set_name);

/// COPY ... FROM stdin payload for one label table ("lout" or "lin"): one
/// line per stop, tab-separated, PostgreSQL array literals. Terminated by
/// the trailing "\\.\n".
std::string LabelTableCopy(const LabelSet& labels, const std::string& table);

/// Code 1 with the given flavor; $1=s, $2=g, $3=t (and $4=t' for SD).
std::string V2vSql(V2vKind kind);

/// Code 2 (naive EA-kNN); $1=q, $2=t, $3=k.
std::string EaKnnNaiveSql(const std::string& set_name);

/// The LD counterpart of Code 2; $1=q, $2=t, $3=k.
std::string LdKnnNaiveSql(const std::string& set_name);

/// Code 3; $1=q, $2=t, $3=k (EA-kNN) — or without LIMIT/slice for EA-OTM.
std::string EaKnnSql(const std::string& set_name);
std::string EaOtmSql(const std::string& set_name);

/// Code 4; $1=q, $2=t, $3=k, $4=arrhour (LD-kNN) — or $3=arrhour and no
/// LIMIT/slice for LD-OTM.
std::string LdKnnSql(const std::string& set_name);
std::string LdOtmSql(const std::string& set_name);

/// Pure-SQL construction of the knn_naive table from lin (the paper omits
/// these "simple SQL commands" for space; this is our reconstruction).
/// Targets are inlined as a VALUES list.
std::string NaiveTableConstructionSql(const std::string& set_name,
                                      const std::vector<StopId>& targets,
                                      uint32_t kmax);

/// Writes a complete psql script (DDL + COPY + example queries) for an
/// index. Used by the sql_export example.
std::string FullExportScript(const TtlIndex& index);

}  // namespace ptldb

#endif  // PTLDB_PGSQL_SQL_WRITER_H_
