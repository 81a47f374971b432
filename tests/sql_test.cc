#include <gtest/gtest.h>

#include "common/rng.h"
#include "pgsql/sql_writer.h"
#include "ptldb/ptldb.h"
#include "sql/interpreter.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/system_tables.h"
#include "timetable/example_graph.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

#include "test_time.h"

namespace ptldb {
namespace {

// ---------- Lexer ----------

TEST(SqlLexerTest, TokenizesBasics) {
  const auto tokens = LexSql("SELECT v, hubs[1:$2] FROM lout WHERE v >= 10");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_EQ((*tokens)[0].kind, SqlTokenKind::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "v");
  EXPECT_EQ((*tokens)[1].kind, SqlTokenKind::kIdentifier);
}

TEST(SqlLexerTest, CaseFolding) {
  const auto tokens = LexSql("select LOUT Where");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");   // Keywords upper-cased.
  EXPECT_EQ((*tokens)[1].text, "lout");     // Identifiers lower-cased.
  EXPECT_EQ((*tokens)[2].text, "WHERE");
}

TEST(SqlLexerTest, CommentsAndOperators) {
  const auto tokens = LexSql("a <= b -- trailing\n/* block */ c <> d");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].kind, SqlTokenKind::kLe);
  EXPECT_EQ((*tokens)[4].kind, SqlTokenKind::kNe);
}

TEST(SqlLexerTest, RejectsJunk) {
  EXPECT_FALSE(LexSql("SELECT #").ok());
  EXPECT_FALSE(LexSql("$x").ok());
  EXPECT_FALSE(LexSql("/* open").ok());
}

// ---------- Parser ----------

TEST(SqlParserTest, ParsesSimpleSelect) {
  const auto select =
      ParseSqlSelect("SELECT v, hubs FROM lout WHERE v = $1;");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ((*select)->items.size(), 2u);
  EXPECT_EQ((*select)->from.size(), 1u);
  EXPECT_EQ((*select)->from[0].table, "lout");
  ASSERT_NE((*select)->where, nullptr);
  EXPECT_EQ((*select)->where->op, SqlBinaryOp::kEq);
}

TEST(SqlParserTest, ParsesCtesAndUnion) {
  const auto select = ParseSqlSelect(
      "WITH a AS (SELECT 1 AS x), b AS (SELECT 2 AS x) "
      "(SELECT x FROM a) UNION (SELECT x FROM b)");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ((*select)->ctes.size(), 2u);
  EXPECT_NE((*select)->union_next, nullptr);
}

TEST(SqlParserTest, ParsesAllPaperQueries) {
  for (const std::string sql :
       {V2vSql(V2vKind::kEarliestArrival), V2vSql(V2vKind::kLatestDeparture),
        V2vSql(V2vKind::kShortestDuration), EaKnnNaiveSql("poi"),
        LdKnnNaiveSql("poi"), EaKnnSql("poi"), EaOtmSql("poi"),
        LdKnnSql("poi"), LdOtmSql("poi")}) {
    const auto select = ParseSqlSelect(sql);
    EXPECT_TRUE(select.ok()) << select.status().ToString() << "\n" << sql;
  }
}

TEST(SqlParserTest, PrecedenceAndSlices) {
  const auto select = ParseSqlSelect(
      "SELECT a + b / 2, vs[1:$1] FROM t WHERE x = 1 AND y <= 2 OR z > 3");
  ASSERT_TRUE(select.ok());
  const SqlExpr& where = *(*select)->where;
  EXPECT_EQ(where.op, SqlBinaryOp::kOr);  // OR binds loosest.
  EXPECT_EQ(where.lhs->op, SqlBinaryOp::kAnd);
  const SqlExpr& arith = *(*select)->items[0].expr;
  EXPECT_EQ(arith.op, SqlBinaryOp::kAdd);  // b / 2 groups first.
  EXPECT_EQ((*select)->items[1].expr->kind, SqlExprKind::kSlice);
}

TEST(SqlParserTest, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseSqlSelect("FROM lout").ok());
  EXPECT_FALSE(ParseSqlSelect("SELECT v FROM").ok());
  EXPECT_FALSE(ParseSqlSelect("SELECT v FROM lout WHERE").ok());
  EXPECT_FALSE(ParseSqlSelect("SELECT v FROM (SELECT 1").ok());
  EXPECT_FALSE(ParseSqlSelect("SELECT vs[1] FROM t").ok());  // Not a slice.
  EXPECT_FALSE(ParseSqlSelect("SELECT v FROM lout extra tokens ,").ok());
}

// ---------- Interpreter on hand-made tables ----------

class SqlInterpreterTest : public testing::Test {
 protected:
  SqlInterpreterTest() : db_(DeviceProfile::Ram()) {
    auto table = db_.CreateTable(
        "nums", Schema{{"id", ColumnType::kInt32},
                       {"grp", ColumnType::kInt32},
                       {"arr", ColumnType::kInt32Array}});
    std::vector<std::pair<IndexKey, Row>> rows;
    rows.emplace_back(1, Row{Value(1), Value(10),
                             Value(std::vector<int32_t>{5, 6, 7})});
    rows.emplace_back(2, Row{Value(2), Value(10),
                             Value(std::vector<int32_t>{8})});
    rows.emplace_back(3, Row{Value(3), Value(20),
                             Value(std::vector<int32_t>{})});
    EXPECT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  }

  SqlRelation Run(const std::string& sql, std::vector<int64_t> params = {}) {
    SqlInterpreter interpreter(&db_);
    auto result = interpreter.Execute(sql, params);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? std::move(*result) : SqlRelation{};
  }

  EngineDatabase db_;
};

TEST_F(SqlInterpreterTest, SelectWithFilterAndParams) {
  const auto rows = Run("SELECT id FROM nums WHERE grp = $1", {10});
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][0]), 1);
  EXPECT_EQ(std::get<int64_t>(rows.rows[1][0]), 2);
}

TEST_F(SqlInterpreterTest, UnnestExpandsArrays) {
  const auto rows = Run("SELECT id, UNNEST(arr) AS x FROM nums");
  ASSERT_EQ(rows.rows.size(), 4u);  // 3 + 1 + 0 elements.
  EXPECT_EQ(std::get<int64_t>(rows.rows[2][1]), 7);
  EXPECT_EQ(rows.columns[1].name, "x");
}

TEST_F(SqlInterpreterTest, SliceClampsLikePostgres) {
  const auto rows =
      Run("SELECT UNNEST(arr[1:$1]) AS x FROM nums WHERE id = 1", {2});
  ASSERT_EQ(rows.rows.size(), 2u);
  const auto all = Run("SELECT UNNEST(arr[1:99]) AS x FROM nums WHERE id = 1");
  EXPECT_EQ(all.rows.size(), 3u);
}

TEST_F(SqlInterpreterTest, GroupByWithAggregatesAndOrdering) {
  const auto rows = Run(
      "SELECT grp, MIN(id), MAX(id) FROM nums GROUP BY grp "
      "ORDER BY MIN(id) DESC");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][0]), 20);
  EXPECT_EQ(std::get<int64_t>(rows.rows[1][1]), 1);
  EXPECT_EQ(std::get<int64_t>(rows.rows[1][2]), 2);
}

TEST_F(SqlInterpreterTest, GlobalAggregateOverEmptyInputIsNull) {
  const auto rows = Run("SELECT MIN(id) FROM nums WHERE id > 100");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_TRUE(SqlIsNull(rows.rows[0][0]));
}

TEST_F(SqlInterpreterTest, HashJoinOnEquality) {
  const auto rows = Run(
      "SELECT a.id, b.id FROM nums a, nums b "
      "WHERE a.grp = b.grp AND a.id < b.id");
  ASSERT_EQ(rows.rows.size(), 1u);  // Only (1, 2) shares grp 10.
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][0]), 1);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][1]), 2);
}

TEST_F(SqlInterpreterTest, CteStarExpansionUnionLimit) {
  const auto rows = Run(
      "WITH base AS (SELECT id, grp FROM nums) "
      "SELECT x.* FROM ((SELECT id, grp FROM base WHERE grp = 10) UNION "
      "(SELECT id, grp FROM base)) x ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][0]), 3);
  EXPECT_EQ(std::get<int64_t>(rows.rows[1][0]), 2);
}

TEST_F(SqlInterpreterTest, UnionDeduplicatesUnionAllKeeps) {
  const auto distinct = Run(
      "(SELECT grp FROM nums) UNION (SELECT grp FROM nums)");
  EXPECT_EQ(distinct.rows.size(), 2u);
  const auto all = Run(
      "(SELECT grp FROM nums) UNION ALL (SELECT grp FROM nums)");
  EXPECT_EQ(all.rows.size(), 6u);
}

TEST_F(SqlInterpreterTest, ArithmeticAndFunctions) {
  const auto rows = Run(
      "SELECT id + 1, id - 1, id / 2, FLOOR(id / 2), LEAST(id, 2), "
      "GREATEST(id, 2) FROM nums WHERE id = 3");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][0]), 4);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][1]), 2);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][2]), 1);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][3]), 1);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][4]), 2);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][5]), 3);
}

TEST_F(SqlInterpreterTest, ErrorsSurfaceCleanly) {
  SqlInterpreter interpreter(&db_);
  EXPECT_FALSE(interpreter.Execute("SELECT nope FROM nums").ok());
  EXPECT_FALSE(interpreter.Execute("SELECT id FROM missing_table").ok());
  EXPECT_FALSE(interpreter.Execute("SELECT id FROM nums WHERE id = $1").ok());
  EXPECT_FALSE(interpreter.Execute("SELECT UNNEST(id) FROM nums").ok());
  EXPECT_FALSE(interpreter.Execute("SELECT id / 0 FROM nums").ok());
}

// ---------- The paper's literal SQL on the embedded engine ----------

class SqlPaperQueriesTest : public testing::Test {
 protected:
  SqlPaperQueriesTest() {
    GeneratorOptions o;
    o.num_stops = 70;
    o.target_connections = 3200;
    o.min_route_len = 4;
    o.max_route_len = 8;
    o.seed = 1234;
    tt_ = std::move(GenerateNetwork(o)).value();
    index_ = std::move(BuildTtlIndex(tt_)).value();
    PtldbOptions options;
    options.device = DeviceProfile::Ram();
    db_ = std::move(PtldbDatabase::Build(index_, options)).value();
    Rng rng(9);
    targets_ = rng.SampleDistinct(tt_.num_stops(), 10);
    EXPECT_TRUE(db_->AddTargetSet("poi", index_, targets_, 4).ok());
  }

  int64_t ScalarOrDefault(const SqlRelation& relation, int64_t fallback) {
    if (relation.rows.empty() || SqlIsNull(relation.rows[0][0])) {
      return fallback;
    }
    return std::get<int64_t>(relation.rows[0][0]);
  }

  std::vector<StopTimeResult> AsResults(const SqlRelation& relation) {
    std::vector<StopTimeResult> out;
    for (const auto& row : relation.rows) {
      out.push_back(
          {static_cast<StopId>(std::get<int64_t>(row[0])),
           EventTime::FromSeconds(std::get<int64_t>(row[1]))});
    }
    return out;
  }

  Timetable tt_;
  TtlIndex index_;
  std::unique_ptr<PtldbDatabase> db_;
  std::vector<StopId> targets_;
};

TEST_F(SqlPaperQueriesTest, Code1MatchesFacade) {
  SqlInterpreter interpreter(db_->engine());
  Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<int64_t>(rng.NextBelow(tt_.num_stops()));
    auto g = static_cast<int64_t>(rng.NextBelow(tt_.num_stops()));
    if (g == s) g = (g + 1) % tt_.num_stops();
    const auto t =
        static_cast<int64_t>(rng.NextInRange(tt_.min_time().raw_seconds(),
                                             tt_.max_time().raw_seconds()));
    const auto t_end =
        static_cast<int64_t>(rng.NextInRange(t, tt_.max_time().raw_seconds()));

    auto ea = interpreter.Execute(V2vSql(V2vKind::kEarliestArrival),
                                  {s, g, t});
    ASSERT_TRUE(ea.ok()) << ea.status().ToString();
    EXPECT_EQ(TSec(ScalarOrDefault(*ea, kInfinityTime)),
              *db_->EarliestArrival(static_cast<StopId>(s),
                                    static_cast<StopId>(g), TSec(t)));

    auto ld = interpreter.Execute(V2vSql(V2vKind::kLatestDeparture),
                                  {s, g, t_end});
    ASSERT_TRUE(ld.ok());
    EXPECT_EQ(TSec(ScalarOrDefault(*ld, kNegInfinityTime)),
              *db_->LatestDeparture(static_cast<StopId>(s),
                                    static_cast<StopId>(g), TSec(t_end)));

    auto sd = interpreter.Execute(V2vSql(V2vKind::kShortestDuration),
                                  {s, g, t, t_end});
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(DSec(ScalarOrDefault(*sd, kInfinityTime)),
              *db_->ShortestDuration(static_cast<StopId>(s),
                                     static_cast<StopId>(g), TSec(t),
                                     TSec(t_end)));
  }
}

TEST_F(SqlPaperQueriesTest, Codes2To4MatchFacade) {
  SqlInterpreter interpreter(db_->engine());
  Rng rng(42);
  const int32_t max_bucket = db_->target_sets()[0].max_bucket;
  for (int i = 0; i < 12; ++i) {
    StopId q = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
    while (std::find(targets_.begin(), targets_.end(), q) != targets_.end()) {
      q = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
    }
    const auto t =
        static_cast<int64_t>(rng.NextInRange(tt_.min_time().raw_seconds(),
                                             tt_.max_time().raw_seconds()));
    const int64_t k = 1 + static_cast<int64_t>(rng.NextBelow(4));
    const int64_t arrhour = std::min<int64_t>(t / 3600, max_bucket);

    auto naive = interpreter.Execute(EaKnnNaiveSql("poi"), {q, t, k});
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    EXPECT_EQ(AsResults(*naive),
              *db_->EaKnnNaive("poi", q, TSec(t),
                               static_cast<uint32_t>(k)));

    auto ld_naive = interpreter.Execute(LdKnnNaiveSql("poi"), {q, t, k});
    ASSERT_TRUE(ld_naive.ok()) << ld_naive.status().ToString();
    EXPECT_EQ(AsResults(*ld_naive),
              *db_->LdKnnNaive("poi", q, TSec(t),
                               static_cast<uint32_t>(k)));

    auto ea_knn = interpreter.Execute(EaKnnSql("poi"), {q, t, k});
    ASSERT_TRUE(ea_knn.ok()) << ea_knn.status().ToString();
    EXPECT_EQ(AsResults(*ea_knn),
              *db_->EaKnn("poi", q, TSec(t),
                          static_cast<uint32_t>(k)));

    auto ld_knn =
        interpreter.Execute(LdKnnSql("poi"), {q, t, k, arrhour});
    ASSERT_TRUE(ld_knn.ok()) << ld_knn.status().ToString();
    EXPECT_EQ(AsResults(*ld_knn),
              *db_->LdKnn("poi", q, TSec(t),
                          static_cast<uint32_t>(k)));

    auto ea_otm = interpreter.Execute(EaOtmSql("poi"), {q, t});
    ASSERT_TRUE(ea_otm.ok()) << ea_otm.status().ToString();
    EXPECT_EQ(AsResults(*ea_otm),
              *db_->EaOneToMany("poi", q, TSec(t)));

    auto ld_otm = interpreter.Execute(LdOtmSql("poi"), {q, t, arrhour});
    ASSERT_TRUE(ld_otm.ok()) << ld_otm.status().ToString();
    EXPECT_EQ(AsResults(*ld_otm),
              *db_->LdOneToMany("poi", q, TSec(t)));
  }
}

// Unreachable pairs must surface through SQL as NULL, never as the
// engine's kInfinityTime / kNegInfinityTime sentinels pretending to be
// real timestamps.
TEST_F(SqlPaperQueriesTest, UnreachablePairYieldsNullNotSentinel) {
  SqlInterpreter interpreter(db_->engine());
  // Querying at the end of service leaves (almost) every pair unreachable;
  // scan for one the facade reports as such.
  const auto t = tt_.max_time().raw_seconds();
  StopId s = 0;
  StopId g = 1;
  bool found = false;
  for (StopId a = 0; a < tt_.num_stops() && !found; ++a) {
    for (StopId b = 0; b < tt_.num_stops(); ++b) {
      if (a == b) continue;
      if (*db_->EarliestArrival(a, b, TSec(t)) == EventTime::Infinity()) {
        s = a;
        g = b;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "no unreachable pair in the fixture city";

  const auto expect_null = [&](const SqlRelation& relation, const char* what) {
    ASSERT_LE(relation.rows.size(), 1u) << what;
    if (relation.rows.empty()) return;  // Zero rows is also sentinel-free.
    const SqlValue& cell = relation.rows[0][0];
    EXPECT_TRUE(SqlIsNull(cell)) << what << ": expected NULL";
    if (std::holds_alternative<int64_t>(cell)) {
      const int64_t v = std::get<int64_t>(cell);
      EXPECT_NE(v, kInfinityTime) << what << ": +inf sentinel leaked";
      EXPECT_NE(v, kNegInfinityTime) << what << ": -inf sentinel leaked";
    }
  };

  auto ea = interpreter.Execute(V2vSql(V2vKind::kEarliestArrival),
                                {static_cast<int64_t>(s),
                                 static_cast<int64_t>(g), t});
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  expect_null(*ea, "EA unreachable");

  // Nothing can arrive by the very start of service.
  auto ld = interpreter.Execute(V2vSql(V2vKind::kLatestDeparture),
                                {static_cast<int64_t>(s),
                                 static_cast<int64_t>(g),
                                 tt_.min_time().raw_seconds()});
  ASSERT_TRUE(ld.ok()) << ld.status().ToString();
  expect_null(*ld, "LD unreachable");

  auto sd = interpreter.Execute(V2vSql(V2vKind::kShortestDuration),
                                {static_cast<int64_t>(s),
                                 static_cast<int64_t>(g), t, t});
  ASSERT_TRUE(sd.ok()) << sd.status().ToString();
  expect_null(*sd, "SD empty window");
}

TEST_F(SqlPaperQueriesTest, TableAccessIsChargedToTheDevice) {
  // The interpreter reads tables through the engine's buffer pool, so a
  // cold-cache query must account device time just like the hand plans.
  PtldbOptions options;
  options.device = DeviceProfile::Hdd7200();
  auto db = PtldbDatabase::Build(index_, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->DropCaches().ok());
  (*db)->ResetIoStats();
  SqlInterpreter interpreter((*db)->engine());
  auto result = interpreter.Execute(V2vSql(V2vKind::kEarliestArrival),
                                    {0, 1, tt_.min_time().raw_seconds()});
  ASSERT_TRUE(result.ok());
  EXPECT_GT((*db)->io_time_ns(), 0u);
  EXPECT_GT((*db)->engine()->buffer_pool()->misses(), 0u);
}

// ---------- Golden tests: Codes 1-4 on the Figure-1 example graph ----------

// Runs the literal paper SQL and the src/ptldb physical plans side by side
// on the 7-stop example, so a regression in either layer (or a drift
// between them) is caught with hand-checkable numbers.
class SqlExampleGoldenTest : public testing::Test {
 protected:
  static constexpr uint32_t kKmax = 3;

  SqlExampleGoldenTest() : tt_(MakeExampleTimetable()) {
    TtlBuildOptions options;
    options.custom_order = ExampleVertexOrder();
    index_ = std::move(BuildTtlIndex(tt_, options)).value();
    PtldbOptions popts;
    popts.device = DeviceProfile::Ram();
    db_ = std::move(PtldbDatabase::Build(index_, popts)).value();
    targets_ = {3, 6};
    EXPECT_TRUE(db_->AddTargetSet("poi", index_, targets_, kKmax).ok());
  }

  int64_t Scalar(const SqlRelation& relation, int64_t fallback) {
    if (relation.rows.empty() || SqlIsNull(relation.rows[0][0])) {
      return fallback;
    }
    return std::get<int64_t>(relation.rows[0][0]);
  }

  std::vector<StopTimeResult> Rows(const SqlRelation& relation) {
    std::vector<StopTimeResult> out;
    for (const auto& row : relation.rows) {
      out.push_back({static_cast<StopId>(std::get<int64_t>(row[0])),
                     EventTime::FromSeconds(std::get<int64_t>(row[1]))});
    }
    return out;
  }

  int64_t SqlEa(int64_t s, int64_t g, int64_t t) {
    SqlInterpreter interpreter(db_->engine());
    auto r = interpreter.Execute(V2vSql(V2vKind::kEarliestArrival), {s, g, t});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Scalar(*r, kInfinityTime) : kInfinityTime;
  }

  int64_t SqlLd(int64_t s, int64_t g, int64_t t_end) {
    SqlInterpreter interpreter(db_->engine());
    auto r = interpreter.Execute(V2vSql(V2vKind::kLatestDeparture),
                                 {s, g, t_end});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Scalar(*r, kNegInfinityTime) : kNegInfinityTime;
  }

  int64_t SqlSd(int64_t s, int64_t g, int64_t t, int64_t t_end) {
    SqlInterpreter interpreter(db_->engine());
    auto r = interpreter.Execute(V2vSql(V2vKind::kShortestDuration),
                                 {s, g, t, t_end});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Scalar(*r, kInfinityTime) : kInfinityTime;
  }

  int64_t ArrHour(int64_t t) {
    return std::min<int64_t>(t / 3600, db_->target_sets()[0].max_bucket);
  }

  Timetable tt_;
  TtlIndex index_;
  std::unique_ptr<PtldbDatabase> db_;
  std::vector<StopId> targets_;
};

// Hand-derived journeys on Figure 1 (times are paper values x100):
// trip 1 runs 5->1->0->2->6 and trip 2 runs 6->2->0->1->5, both departing
// 28800 with hops of 3600 s; trip 3 is 3->0 @ 32400; trip 4 is 4->0 @ 32400
// branching onward to 3 and 4 at 36000.
TEST_F(SqlExampleGoldenTest, Code1GoldenJourneys) {
  EXPECT_EQ(SqlEa(5, 6, 28800), 43200u);   // Full ride on trip 1.
  EXPECT_EQ(SqlEa(5, 6, 28801), kInfinityTime);  // Missed the only trip.
  EXPECT_EQ(SqlEa(6, 1, 28800), 39600u);   // Trip 2 prefix.
  EXPECT_EQ(SqlEa(4, 3, 28800), 39600u);   // Trip 4 through hub 0.
  EXPECT_EQ(SqlEa(5, 3, 28800), 39600u);   // Trip 1 to 0, transfer to trip 4.
  EXPECT_EQ(SqlEa(0, 3, 36000), 39600u);   // Single connection.
  EXPECT_EQ(SqlEa(2, 5, 32400), 43200u);   // Trip 2 suffix.
  EXPECT_EQ(SqlEa(1, 1, 32400), 32400u);   // Self query: already there.
  EXPECT_EQ(SqlEa(3, 6, 28800), 43200u);   // Zero-wait transfer at hub 0.

  EXPECT_EQ(SqlLd(5, 6, 43200), 28800u);
  EXPECT_EQ(SqlLd(5, 6, 43199), kNegInfinityTime);
  EXPECT_EQ(SqlLd(4, 3, 86400), 32400u);

  EXPECT_EQ(SqlSd(5, 6, 28800, 43200), 14400u);
  EXPECT_EQ(SqlSd(6, 5, 0, 86400), 14400u);
  EXPECT_EQ(SqlSd(5, 6, 28801, 86400), kInfinityTime);
}

TEST_F(SqlExampleGoldenTest, Code1ExhaustiveMatchesPhysicalPlans) {
  const int64_t times[] = {28799, 28800, 32400, 36000, 39600, 43200, 43201};
  for (StopId s = 0; s < tt_.num_stops(); ++s) {
    for (StopId g = 0; g < tt_.num_stops(); ++g) {
      for (const int64_t t : times) {
        EXPECT_EQ(TSec(SqlEa(s, g, t)),
                  *db_->EarliestArrival(s, g, TSec(t)))
            << "EA(" << s << "," << g << "," << t << ")";
        EXPECT_EQ(TSec(SqlLd(s, g, t)),
                  *db_->LatestDeparture(s, g, TSec(t)))
            << "LD(" << s << "," << g << "," << t << ")";
      }
      EXPECT_EQ(DSec(SqlSd(s, g, 28800, 43200)),
                *db_->ShortestDuration(s, g, TSec(28800), TSec(43200)))
          << "SD(" << s << "," << g << ")";
    }
  }
}

TEST_F(SqlExampleGoldenTest, Codes2And3GoldenKnn) {
  SqlInterpreter interpreter(db_->engine());
  // From stop 5 at 28800, targets {3, 6}: 3 is reached at 39600 (trip 1 to
  // hub 0, trip 4 onward), 6 at 43200 (trip 1 end to end).
  const std::vector<StopTimeResult> want = {{3, TSec(39600)},
                                            {6, TSec(43200)}};
  for (const std::string& sql : {EaKnnNaiveSql("poi"), EaKnnSql("poi")}) {
    auto r = interpreter.Execute(sql, {5, 28800, 2});
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    EXPECT_EQ(Rows(*r), want) << sql;
    auto r1 = interpreter.Execute(sql, {5, 28800, 1});
    ASSERT_TRUE(r1.ok());
    const std::vector<StopTimeResult> want_top1 = {{3, TSec(39600)}};
    EXPECT_EQ(Rows(*r1), want_top1) << sql;
  }
  EXPECT_EQ(*db_->EaKnnNaive("poi", 5, TSec(28800), 2), want);
  EXPECT_EQ(*db_->EaKnn("poi", 5, TSec(28800), 2), want);
}

TEST_F(SqlExampleGoldenTest, Code4GoldenLdKnn) {
  SqlInterpreter interpreter(db_->engine());
  // Arriving by 40000 from stop 5 only target 3 is feasible (dep 28800,
  // arr 39600); target 6 would arrive at 43200.
  const std::vector<StopTimeResult> want = {{3, TSec(28800)}};
  for (const std::string& sql : {LdKnnNaiveSql("poi"), LdKnnSql("poi")}) {
    const bool needs_hour = sql == LdKnnSql("poi");
    auto r = needs_hour
                 ? interpreter.Execute(sql, {5, 40000, 2, ArrHour(40000)})
                 : interpreter.Execute(sql, {5, 40000, 2});
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    EXPECT_EQ(Rows(*r), want) << sql;
  }
  EXPECT_EQ(*db_->LdKnnNaive("poi", 5, TSec(40000), 2), want);
  EXPECT_EQ(*db_->LdKnn("poi", 5, TSec(40000), 2), want);
}

TEST_F(SqlExampleGoldenTest, Codes2To4ExhaustiveMatchPhysicalPlans) {
  SqlInterpreter interpreter(db_->engine());
  const int64_t times[] = {28800, 32400, 36000, 40000};
  for (const StopId q : {0u, 1u, 2u, 4u, 5u}) {  // Non-target stops.
    for (const int64_t t : times) {
      for (int64_t k = 1; k <= kKmax; ++k) {
        auto naive = interpreter.Execute(EaKnnNaiveSql("poi"), {q, t, k});
        ASSERT_TRUE(naive.ok()) << naive.status().ToString();
        EXPECT_EQ(Rows(*naive),
                  *db_->EaKnnNaive("poi", q, TSec(t),
                                   static_cast<uint32_t>(k)));
        auto ld_naive = interpreter.Execute(LdKnnNaiveSql("poi"), {q, t, k});
        ASSERT_TRUE(ld_naive.ok());
        EXPECT_EQ(Rows(*ld_naive),
                  *db_->LdKnnNaive("poi", q, TSec(t),
                                   static_cast<uint32_t>(k)));
        auto ea_knn = interpreter.Execute(EaKnnSql("poi"), {q, t, k});
        ASSERT_TRUE(ea_knn.ok());
        EXPECT_EQ(Rows(*ea_knn),
                  *db_->EaKnn("poi", q, TSec(t),
                              static_cast<uint32_t>(k)));
        auto ld_knn =
            interpreter.Execute(LdKnnSql("poi"), {q, t, k, ArrHour(t)});
        ASSERT_TRUE(ld_knn.ok());
        EXPECT_EQ(Rows(*ld_knn),
                  *db_->LdKnn("poi", q, TSec(t),
                              static_cast<uint32_t>(k)));
      }
      auto ea_otm = interpreter.Execute(EaOtmSql("poi"), {q, t});
      ASSERT_TRUE(ea_otm.ok());
      EXPECT_EQ(Rows(*ea_otm),
                *db_->EaOneToMany("poi", q, TSec(t)));
      auto ld_otm =
          interpreter.Execute(LdOtmSql("poi"), {q, t, ArrHour(t)});
      ASSERT_TRUE(ld_otm.ok());
      EXPECT_EQ(Rows(*ld_otm),
                *db_->LdOneToMany("poi", q, TSec(t)));
    }
  }
}

// ---------- EXPLAIN ANALYZE ----------

uint64_t SpanStat(const QueryTrace::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.stats) {
    if (k == key) return v;
  }
  return 0;
}

const QueryTrace::Span* FindChild(const QueryTrace::Span& span,
                                  const std::string& name) {
  for (const auto& child : span.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

TEST_F(SqlExampleGoldenTest, ExplainAnalyzePrefixReturnsPlanRelation) {
  SqlInterpreter interpreter(db_->engine());
  auto plan = interpreter.Execute(
      "explain analyze " + V2vSql(V2vKind::kEarliestArrival), {5, 6, 28800});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->columns.size(), 1u);
  EXPECT_EQ(plan->columns[0].name, "QUERY PLAN");
  ASSERT_FALSE(plan->rows.empty());
  const std::string first = std::get<std::string>(plan->rows[0][0]);
  EXPECT_NE(first.find("query"), std::string::npos);
  EXPECT_NE(first.find("[time="), std::string::npos);
  // An identifier starting with the keyword must not trigger the prefix.
  EXPECT_FALSE(interpreter.Execute("EXPLAIN ANALYZEX SELECT 1").ok());
}

TEST_F(SqlExampleGoldenTest, ExplainAnalyzeGoldenPlan) {
  SqlInterpreter interpreter(db_->engine());
  QueryTrace trace;
  SqlRelation result;
  auto plan = interpreter.ExplainAnalyze(V2vSql(V2vKind::kEarliestArrival),
                                         {5, 6, 28800}, &trace, &result);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The traced query still answers: EA(5, 6, 28800) = 43200 on Figure 1.
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), 43200);
  // Timing-free rendering is deterministic: the Ram device has zero
  // modeled latency (so no ns stats appear) and the operation counts
  // depend only on the fixed example dataset. Each of the 7 stops has one
  // lout and one lin row; the two CTE scans each read a 7-row table and
  // unnest one row's label tuples.
  EXPECT_EQ(
      trace.ToString(false),
      "query\n"
      "  parse\n"
      "  execute  rows=1  pool.hits=40  pool.misses=4  device.reads=4"
      "  index.seeks=2  tuples.scanned=14\n"
      "    cte outp  rows=3  pool.hits=20  pool.misses=2  device.reads=2"
      "  index.seeks=1  tuples.scanned=7\n"
      "      scan lout  rows=7  pool.hits=20  pool.misses=2  device.reads=2"
      "  index.seeks=1  tuples.scanned=7\n"
      "      unnest  rows=3\n"
      "    cte inp  rows=3  pool.hits=20  pool.misses=2  device.reads=2"
      "  index.seeks=1  tuples.scanned=7\n"
      "      scan lin  rows=7  pool.hits=20  pool.misses=2  device.reads=2"
      "  index.seeks=1  tuples.scanned=7\n"
      "      unnest  rows=3\n"
      "    hash join  rows=1\n"
      "    filter  rows=1\n"
      "    aggregate  rows=1\n");
}

TEST_F(SqlExampleGoldenTest, ExplainAnalyzeCountersMatchEngineGroundTruth) {
  // The acceptance bar for the tracer: span counters are captured as
  // begin/end deltas of the engine's own counters, so after a reset the
  // top-level execute span must agree with the ground truth exactly.
  PtldbOptions options;
  options.device = DeviceProfile::Hdd7200();
  auto db = PtldbDatabase::Build(index_, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->AddTargetSet("poi", index_, targets_, kKmax).ok());
  ASSERT_TRUE((*db)->DropCaches().ok());
  (*db)->ResetIoStats();
  SqlInterpreter interpreter((*db)->engine());
  QueryTrace trace;
  auto plan =
      interpreter.ExplainAnalyze(EaKnnSql("poi"), {5, 28800, 2}, &trace);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const QueryTrace::Span* exec = FindChild(trace.root(), "execute");
  ASSERT_NE(exec, nullptr);
  BufferPool* pool = (*db)->engine()->buffer_pool();
  StorageDevice* device = (*db)->engine()->device();
  EXPECT_EQ(SpanStat(*exec, "pool.hits"), pool->hits());
  EXPECT_EQ(SpanStat(*exec, "pool.misses"), pool->misses());
  EXPECT_EQ(SpanStat(*exec, "device.reads"), device->reads());
  EXPECT_GT(SpanStat(*exec, "pool.misses"), 0u);  // Cold cache: real reads.
  EXPECT_GT(SpanStat(*exec, "device.reads"), 0u);
  EXPECT_GT(SpanStat(*exec, "tuples.scanned"), 0u);
}

TEST_F(SqlExampleGoldenTest, VmStepsSpanStatMatchesEngineCounter) {
  // The compiled VM publishes its step count through one
  // LocalQueryCounters field that Timed() flushes to the exec.vm_steps
  // registry counter and the facade span attaches as "vm.steps". The two
  // views must agree exactly, and the SQL interpreter must attach no
  // vm.steps stat at all — which is why the golden trace strings above
  // (recorded on interpreted SQL) need no vm.steps column.
  Counter* steps = db_->engine()->metrics()->counter("exec.vm_steps");
  QueryTrace vm_trace;
  db_->set_trace(&vm_trace);
  const uint64_t before_vm = steps->value();
  auto ea = db_->EarliestArrival(5, 6, TSec(28800));
  ASSERT_TRUE(ea.ok());
  EXPECT_EQ(*ea, TSec(43200));
  auto knn = db_->EaKnn("poi", 5, TSec(28800), 2);
  ASSERT_TRUE(knn.ok());
  db_->set_trace(nullptr);
  const uint64_t vm_delta = steps->value() - before_vm;
  EXPECT_GT(vm_delta, 0u);
  const QueryTrace::Span* v2v = FindChild(vm_trace.root(), "v2v_ea");
  const QueryTrace::Span* ea_knn = FindChild(vm_trace.root(), "ea_knn");
  ASSERT_NE(v2v, nullptr);
  ASSERT_NE(ea_knn, nullptr);
  EXPECT_GT(SpanStat(*v2v, "vm.steps"), 0u);
  EXPECT_GT(SpanStat(*ea_knn, "vm.steps"), 0u);
  EXPECT_EQ(SpanStat(*v2v, "vm.steps") + SpanStat(*ea_knn, "vm.steps"),
            vm_delta);

  // The same queries as the paper's literal SQL: the counter must not
  // move and the traced spans must carry no vm.steps stat (only nonzero
  // deltas attach).
  SqlInterpreter interpreter(db_->engine());
  const uint64_t before_sql = steps->value();
  SqlRelation result;
  QueryTrace v2v_trace;
  ASSERT_TRUE(interpreter
                  .ExplainAnalyze(V2vSql(V2vKind::kEarliestArrival),
                                  {5, 6, 28800}, &v2v_trace, &result)
                  .ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), 43200);
  QueryTrace knn_trace;
  ASSERT_TRUE(
      interpreter.ExplainAnalyze(EaKnnSql("poi"), {5, 28800, 2}, &knn_trace)
          .ok());
  EXPECT_EQ(steps->value(), before_sql);
  for (const QueryTrace* trace : {&v2v_trace, &knn_trace}) {
    const QueryTrace::Span* exec = FindChild(trace->root(), "execute");
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(SpanStat(*exec, "vm.steps"), 0u);
  }
}

TEST_F(SqlPaperQueriesTest, PaperWorkedExampleViaSql) {
  // EA(1, 1, 324) = 324 on the Figure-1 example, via the literal Code 1.
  const Timetable example = MakeExampleTimetable();
  TtlBuildOptions options;
  options.custom_order = ExampleVertexOrder();
  const auto index = BuildTtlIndex(example, options);
  ASSERT_TRUE(index.ok());
  PtldbOptions popts;
  popts.device = DeviceProfile::Ram();
  auto db = PtldbDatabase::Build(*index, popts);
  ASSERT_TRUE(db.ok());
  SqlInterpreter interpreter((*db)->engine());
  auto result = interpreter.Execute(V2vSql(V2vKind::kEarliestArrival),
                                    {1, 1, 32400});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result->rows[0][0]), 32400);
}

// ---------- String literals and typed comparisons ----------

TEST(SqlLexerTest, StringLiteralsWithEscapes) {
  const auto tokens = LexSql("SELECT 'poi' , 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].kind, SqlTokenKind::kString);
  EXPECT_EQ((*tokens)[1].text, "poi");
  EXPECT_EQ((*tokens)[3].kind, SqlTokenKind::kString);
  EXPECT_EQ((*tokens)[3].text, "it's");  // '' unescapes to one quote.
  EXPECT_FALSE(LexSql("SELECT 'unterminated").ok());
}

TEST_F(SqlInterpreterTest, StringComparisonsAreTyped) {
  // String-string comparisons evaluate; string-int mixes are errors, not
  // silent falsehoods.
  const auto rows = Run("SELECT id FROM nums WHERE 'a' = 'a'");
  EXPECT_EQ(rows.rows.size(), 3u);
  EXPECT_TRUE(Run("SELECT id FROM nums WHERE 'a' < 'b'").rows.size() == 3u);
  EXPECT_TRUE(Run("SELECT id FROM nums WHERE 'a' = 'b'").rows.empty());
  SqlInterpreter interpreter(&db_);
  EXPECT_FALSE(interpreter.Execute("SELECT id FROM nums WHERE id = 'a'").ok());
}

// ---------- System tables: the database describes itself ----------

// Goldens on the Figure-1 example: run known queries through the facade,
// then read the self-description back through the SQL front-end. The
// system tables materialize from live state and flow through the normal
// executor, so predicates / projections / ORDER BY must compose.
class SqlSystemTableTest : public testing::Test {
 protected:
  SqlSystemTableTest() : tt_(MakeExampleTimetable()) {
    TtlBuildOptions options;
    options.custom_order = ExampleVertexOrder();
    index_ = std::move(BuildTtlIndex(tt_, options)).value();
    PtldbOptions popts;
    popts.device = DeviceProfile::Ram();
    popts.query_log.sample_every = 0;  // Deterministic retention only.
    db_ = std::move(PtldbDatabase::Build(index_, popts)).value();
    PtldbDatabase* raw = db_.get();
    catalog_ = std::make_unique<SystemTableCatalog>(
        [raw] { return raw->Snapshot(); }, raw->query_log());
  }

  SqlRelation Run(const std::string& sql) {
    SqlInterpreter interpreter(db_->engine());
    interpreter.set_system_tables(catalog_.get());
    auto result = interpreter.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? std::move(*result) : SqlRelation{};
  }

  Timetable tt_;
  TtlIndex index_;
  std::unique_ptr<PtldbDatabase> db_;
  std::unique_ptr<SystemTableCatalog> catalog_;
};

TEST_F(SqlSystemTableTest, SlowQueriesGoldenRecordForKnownQuery) {
  EXPECT_TRUE(Run("SELECT seq FROM ptldb_slow_queries").rows.empty());
  ASSERT_TRUE(db_->EarliestArrival(5, 6, TSec(28800)).ok());

  const auto rows = Run(
      "SELECT seq, type, outcome, s, g, t, latency_ns FROM "
      "ptldb_slow_queries");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][0]), 1);  // First seq.
  EXPECT_EQ(std::get<std::string>(rows.rows[0][1]), "v2v_ea");
  EXPECT_EQ(std::get<std::string>(rows.rows[0][2]), "ok");
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][3]), 5);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][4]), 6);
  EXPECT_EQ(std::get<int64_t>(rows.rows[0][5]), 28800);
  EXPECT_GT(std::get<int64_t>(rows.rows[0][6]), 0);

  // The per-row phase columns sum exactly to the latency column.
  SqlRelation detail = Run(
      "SELECT latency_ns, queue_wait_ns, admission_ns, plan_ns, "
      "label_decode_ns, merge_ns, buffer_io_ns, callback_ns, other_ns "
      "FROM ptldb_slow_queries");
  ASSERT_EQ(detail.rows.size(), 1u);
  int64_t phase_sum = 0;
  for (size_t c = 1; c < detail.columns.size(); ++c) {
    phase_sum += std::get<int64_t>(detail.rows[0][c]);
  }
  EXPECT_EQ(std::get<int64_t>(detail.rows[0][0]), phase_sum);
}

TEST_F(SqlSystemTableTest, StringPredicatesAndOrderingCompose) {
  ASSERT_TRUE(db_->EarliestArrival(5, 6, TSec(28800)).ok());
  ASSERT_TRUE(db_->EarliestArrival(6, 1, TSec(28800)).ok());
  EXPECT_FALSE(db_->EaKnn("nope", 5, TSec(28800), 2).ok());  // Unknown set.

  const auto ok_rows = Run(
      "SELECT seq FROM ptldb_slow_queries WHERE outcome = 'ok' "
      "ORDER BY seq DESC LIMIT 1");
  ASSERT_EQ(ok_rows.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(ok_rows.rows[0][0]), 2);

  const auto err = Run(
      "SELECT type, cause FROM ptldb_slow_queries WHERE outcome = 'error'");
  ASSERT_EQ(err.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(err.rows[0][0]), "ea_knn");
  EXPECT_EQ(std::get<std::string>(err.rows[0][1]), "not_found");
}

TEST_F(SqlSystemTableTest, TracesRetainErroredRequests) {
  ASSERT_TRUE(db_->EarliestArrival(5, 6, TSec(28800)).ok());  // Fast ok: dropped.
  EXPECT_FALSE(db_->EaKnn("nope", 5, TSec(28800), 2).ok());

  const auto traces =
      Run("SELECT seq, type, reason, trace FROM ptldb_traces");
  ASSERT_EQ(traces.rows.size(), 1u);  // 100% of errors, 0% of fast oks.
  EXPECT_EQ(std::get<std::string>(traces.rows[0][1]), "ea_knn");
  EXPECT_EQ(std::get<std::string>(traces.rows[0][2]), "error");
  const std::string& json = std::get<std::string>(traces.rows[0][3]);
  EXPECT_NE(json.find("\"cause\": \"not_found\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

TEST_F(SqlSystemTableTest, StatsExposesCountersAndHistogramsWithNulls) {
  ASSERT_TRUE(db_->EarliestArrival(5, 6, TSec(28800)).ok());

  const auto counter = Run(
      "SELECT value, p50 FROM ptldb_stats WHERE name = 'querylog.records'");
  ASSERT_EQ(counter.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(counter.rows[0][0]), 1);
  EXPECT_TRUE(SqlIsNull(counter.rows[0][1]));  // Counters have no quantiles.

  const auto hist = Run(
      "SELECT kind, count, value FROM ptldb_stats "
      "WHERE name = 'query.v2v_ea.latency_ns'");
  ASSERT_EQ(hist.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(hist.rows[0][0]), "histogram");
  EXPECT_EQ(std::get<int64_t>(hist.rows[0][1]), 1);
  EXPECT_TRUE(SqlIsNull(hist.rows[0][2]));  // Histograms have no value.

  // The facade overlay: engine-side counters that live outside the
  // registry (device, buffer pool) are still visible rows.
  const auto device =
      Run("SELECT value FROM ptldb_stats WHERE name = 'bufferpool.hits'");
  ASSERT_EQ(device.rows.size(), 1u);

  // ptldb_server is empty when no serving layer is attached — a golden in
  // itself (library-embedded databases have no server.* slice).
  EXPECT_TRUE(Run("SELECT name FROM ptldb_server").rows.empty());
}

TEST_F(SqlSystemTableTest, EngineTablesAreNotShadowedAndUnknownStillErrors) {
  const auto lout = Run("SELECT v FROM lout WHERE v = 0");
  EXPECT_FALSE(lout.rows.empty());  // Engine resolution unchanged.
  SqlInterpreter interpreter(db_->engine());
  interpreter.set_system_tables(catalog_.get());
  EXPECT_FALSE(interpreter.Execute("SELECT x FROM no_such_table").ok());
}

// ---------- Phase attribution vs engine ground truth ----------

// The exactness claim of DESIGN.md §11: summing the query log's phase.*
// series reconstructs the engine's own counters with zero residue —
// attribution is a partition of the same thread-local deltas, not a
// parallel estimate.
TEST(QueryLogAttributionTest, PhaseSumsEqualEngineCountersExactly) {
  GeneratorOptions o;
  o.num_stops = 60;
  o.target_connections = 2500;
  o.seed = 77;
  const Timetable tt = std::move(GenerateNetwork(o)).value();
  const TtlIndex index = std::move(BuildTtlIndex(tt)).value();
  PtldbOptions popts;
  popts.device = DeviceProfile::SataSsd();
  popts.compressed_labels = true;  // Exercise the label_decode phase too.
  popts.query_log.sample_every = 0;
  auto db = std::move(PtldbDatabase::Build(index, popts)).value();

  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    const auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    ASSERT_TRUE(db->EarliestArrival(s, g, tt.min_time()).ok());
  }

  const MetricsSnapshot snap = db->Snapshot();
  uint64_t ns_sum = 0, decode_sum = 0, cmp_sum = 0, hub_sum = 0;
  for (size_t p = 0; p < kNumQueryPhases; ++p) {
    const std::string base =
        std::string("phase.") + QueryPhaseName(static_cast<QueryPhase>(p));
    const auto hist = snap.histograms.find(base + ".ns");
    if (hist != snap.histograms.end()) ns_sum += hist->second.sum;
    const auto get = [&](const char* leaf) {
      const auto it = snap.counters.find(base + leaf);
      return it == snap.counters.end() ? 0 : it->second;
    };
    decode_sum += get(".label_decodes");
    cmp_sum += get(".label_comparisons");
    hub_sum += get(".hubs_merged");
  }
  EXPECT_EQ(ns_sum, snap.counters.at("querylog.latency_ns"));
  EXPECT_EQ(decode_sum, snap.counters.at("ttl.labels.decodes"));
  EXPECT_EQ(cmp_sum, snap.counters.at("ttl.label_comparisons"));
  EXPECT_EQ(hub_sum, snap.counters.at("ttl.hubs_merged"));
  EXPECT_GT(decode_sum, 0u);  // The compressed tier actually served.
  EXPECT_GT(hub_sum, 0u);
}

}  // namespace
}  // namespace ptldb
