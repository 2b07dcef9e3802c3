// EXPLAIN ANALYZE / per-operator instrumentation tests: actual rows, Q-error,
// I/O attribution, and the chrome trace export.
#include <gtest/gtest.h>

#include "exec/plan_profile.h"
#include "test_util.h"

namespace relopt {
namespace {

using tu::Sql;

void LoadThreeWay(Database* db) {
  Sql(db, "CREATE TABLE c (id INT, name TEXT)");
  Sql(db, "CREATE TABLE o (id INT, c_id INT)");
  Sql(db, "CREATE TABLE l (id INT, o_id INT, qty INT)");
  std::string ci = "INSERT INTO c VALUES ";
  for (int i = 0; i < 50; ++i) {
    if (i > 0) ci += ", ";
    ci += "(" + std::to_string(i) + ", 'c" + std::to_string(i) + "')";
  }
  Sql(db, ci);
  std::string oi = "INSERT INTO o VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) oi += ", ";
    oi += "(" + std::to_string(i) + ", " + std::to_string(i % 50) + ")";
  }
  Sql(db, oi);
  std::string li = "INSERT INTO l VALUES ";
  for (int i = 0; i < 600; ++i) {
    if (i > 0) li += ", ";
    li += "(" + std::to_string(i) + ", " + std::to_string(i % 200) + ", " +
          std::to_string(i % 7) + ")";
  }
  Sql(db, li);
  Sql(db, "ANALYZE");
}

constexpr char kThreeWayJoin[] =
    "SELECT c.name, l.qty FROM c, o, l WHERE c.id = o.c_id AND o.id = l.o_id";

TEST(ExplainAnalyzeTest, EveryOperatorLineHasActuals) {
  Database db;
  LoadThreeWay(&db);
  QueryResult r = Sql(&db, std::string("EXPLAIN ANALYZE ") + kThreeWayJoin);
  ASSERT_FALSE(r.rows.empty());
  size_t operator_lines = 0;
  for (const Tuple& row : r.rows) {
    std::string line = row.At(0).AsString();
    if (line.find("actual:") != std::string::npos) continue;  // totals footer
    ++operator_lines;
    EXPECT_NE(line.find("est_rows="), std::string::npos) << line;
    EXPECT_NE(line.find("actual_rows="), std::string::npos) << line;
    EXPECT_NE(line.find("q_err="), std::string::npos) << line;
    EXPECT_NE(line.find("reads="), std::string::npos) << line;
    EXPECT_NE(line.find("time="), std::string::npos) << line;
  }
  // A 3-way join plan has at least 2 joins + 3 scans.
  EXPECT_GE(operator_lines, 5u);
}

TEST(ExplainAnalyzeTest, RootActualRowsMatchesResultSize) {
  Database db;
  LoadThreeWay(&db);
  QueryResult r = Sql(&db, kThreeWayJoin);
  const PlanProfile& profile = db.last_profile();
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.root.stats.rows_produced, r.rows.size());
  EXPECT_EQ(r.rows.size(), 600u);  // every lineitem joins through
}

TEST(ExplainAnalyzeTest, PerNodeIoSumsToQueryMetrics) {
  Database db;
  LoadThreeWay(&db);
  PhysicalPtr plan;
  {
    Result<PhysicalPtr> p = db.PlanQuery(kThreeWayJoin);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    plan = p.MoveValue();
  }
  // Cold cache so the scans do real page reads.
  ASSERT_OK(db.pool()->FlushAll());
  ASSERT_OK(db.pool()->EvictAll());
  Result<QueryResult> r = db.ExecutePlan(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const ExecutionMetrics& m = db.last_metrics();
  const PlanProfile& profile = db.last_profile();
  ASSERT_TRUE(profile.valid);
  EXPECT_GT(m.io.page_reads, 0u);
  // I/O attribution is exclusive per operator, so it must sum exactly.
  EXPECT_EQ(profile.Total().page_reads, m.io.page_reads);
  EXPECT_EQ(profile.Total().page_writes, m.io.page_writes);
}

TEST(ExplainAnalyzeTest, QErrorReflectsStaleStatistics) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  std::string ins = "INSERT INTO t VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) ins += ", ";
    ins += "(" + std::to_string(i) + ")";
  }
  Sql(&db, ins);
  Sql(&db, "ANALYZE");  // stats now say 100 rows
  for (int batch = 0; batch < 9; ++batch) {  // grow to 1000 without re-analyzing
    std::string more = "INSERT INTO t VALUES ";
    for (int i = 0; i < 100; ++i) {
      if (i > 0) more += ", ";
      more += "(" + std::to_string(1000 + batch * 100 + i) + ")";
    }
    Sql(&db, more);
  }
  QueryResult r = Sql(&db, "SELECT a FROM t");
  ASSERT_EQ(r.rows.size(), 1000u);
  const PlanProfile& profile = db.last_profile();
  ASSERT_TRUE(profile.valid);
  // est 100 vs actual 1000: Q-error ~10 at the scan.
  EXPECT_GT(profile.root.q_error(), 5.0);
  EXPECT_LT(profile.root.q_error(), 20.0);
}

TEST(ExplainAnalyzeTest, QErrorHelperIsSymmetricAndClamped) {
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(50, 50), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);  // both clamped to 1
  EXPECT_DOUBLE_EQ(QError(0, 10), 10.0);
}

TEST(ExplainAnalyzeTest, ChromeTraceIsWellFormedEventArray) {
  Database db;
  LoadThreeWay(&db);
  Sql(&db, kThreeWayJoin);
  const PlanProfile& profile = db.last_profile();
  ASSERT_TRUE(profile.valid);
  std::string trace = profile.ToChromeTrace();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":"), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":"), std::string::npos);
  // One event per operator.
  size_t events = 0;
  for (size_t pos = 0; (pos = trace.find("\"name\":", pos)) != std::string::npos; ++pos) ++events;
  EXPECT_EQ(events, profile.NumOperators());
}

TEST(ExplainAnalyzeTest, ProfileJsonNestsChildren) {
  Database db;
  LoadThreeWay(&db);
  Sql(&db, kThreeWayJoin);
  std::string json = db.last_profile().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"actual_rows\":"), std::string::npos);
  EXPECT_NE(json.find("\"q_error\":"), std::string::npos);
}

TEST(ExplainAnalyzeTest, DmlStatementsReportTheirOwnDeltas) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2), (3)");
  const ExecutionMetrics& after_insert = db.last_metrics();
  EXPECT_GT(after_insert.pool.hits + after_insert.pool.misses, 0u);
  // A later SELECT's metrics must not include the insert's pool traffic
  // compounded — each statement resets the deltas.
  Sql(&db, "SELECT a FROM t");
  EXPECT_EQ(db.last_profile().root.stats.rows_produced, 3u);
}

}  // namespace
}  // namespace relopt
