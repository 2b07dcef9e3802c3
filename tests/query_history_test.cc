// QueryHistoryStore tests: SQL normalization, ring-buffer wraparound,
// concurrent appends (parallelism 2/4/8), slow-query log emission, and the
// Database integration (records for successful AND failing statements).
#include "engine/query_history.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "expr/expression.h"
#include "plan/physical_plan.h"
#include "test_util.h"
#include "util/logging.h"

namespace relopt {
namespace {

using tu::Sql;

TEST(NormalizeSqlTest, CollapsesWhitespaceAndLowercases) {
  EXPECT_EQ(NormalizeSql("SELECT  *\n FROM\temp  "), "select * from emp");
}

TEST(NormalizeSqlTest, ReplacesNumericLiterals) {
  EXPECT_EQ(NormalizeSql("SELECT * FROM emp WHERE id = 7 AND salary > 30.5"),
            "select * from emp where id = ? and salary > ?");
}

TEST(NormalizeSqlTest, ReplacesStringLiteralsIncludingEscapes) {
  EXPECT_EQ(NormalizeSql("SELECT * FROM emp WHERE name = 'O''Brien'"),
            "select * from emp where name = ?");
}

TEST(NormalizeSqlTest, KeepsDigitsInsideIdentifiers) {
  EXPECT_EQ(NormalizeSql("SELECT a1 FROM emp2 WHERE a1 = 3"),
            "select a1 from emp2 where a1 = ?");
}

std::shared_ptr<QueryRecord> MakeRecord(const std::string& sql, uint64_t wall_us = 0) {
  auto r = std::make_shared<QueryRecord>();
  r->verb = "select";
  r->status = "OK";
  r->sql = sql;
  r->wall_micros = wall_us;
  return r;
}

TEST(QueryHistoryStoreTest, AssignsMonotonicIds) {
  QueryHistoryStore store(4);
  EXPECT_EQ(store.Append(MakeRecord("q1")), 1u);
  EXPECT_EQ(store.Append(MakeRecord("q2")), 2u);
  EXPECT_EQ(store.total_appended(), 2u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(QueryHistoryStoreTest, RingWrapsKeepingNewestOldestFirst) {
  QueryHistoryStore store(3);
  for (int i = 1; i <= 5; ++i) store.Append(MakeRecord("q" + std::to_string(i)));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.total_appended(), 5u);
  std::vector<std::shared_ptr<const QueryRecord>> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Oldest-first: records 3, 4, 5 survive.
  EXPECT_EQ(snap[0]->sql, "q3");
  EXPECT_EQ(snap[1]->sql, "q4");
  EXPECT_EQ(snap[2]->sql, "q5");
  EXPECT_EQ(snap[0]->id, 3u);
  EXPECT_EQ(snap[2]->id, 5u);
}

TEST(QueryHistoryStoreTest, ClearKeepsIdsIncreasing) {
  QueryHistoryStore store(4);
  store.Append(MakeRecord("a"));
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Append(MakeRecord("b")), 2u);
}

class QueryHistoryConcurrencyTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryHistoryConcurrencyTest, ConcurrentAppendsKeepInvariants) {
  const int kThreads = GetParam();
  constexpr int kPerThread = 500;
  QueryHistoryStore store(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        store.Append(MakeRecord("t" + std::to_string(t) + "_" + std::to_string(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.total_appended(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(store.size(), 64u);
  // Ids in a snapshot are unique and strictly increasing oldest-first.
  std::vector<std::shared_ptr<const QueryRecord>> snap = store.Snapshot();
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1]->id, snap[i]->id);
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, QueryHistoryConcurrencyTest, ::testing::Values(2, 4, 8));

TEST(QueryHistoryStoreTest, SlowQueryEmitsOneLineJson) {
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) { lines.push_back(line); });
  QueryHistoryStore store(8);
  store.set_slow_query_micros(1000);
  store.Append(MakeRecord("fast", 999));   // below threshold: no log line
  store.Append(MakeRecord("slow", 1000));  // at threshold: logged
  SetLogSink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"event\": \"slow_query\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"sql\": \"slow\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"wall_us\": 1000"), std::string::npos) << lines[0];
  // One line: no embedded newlines before the trailing one.
  EXPECT_EQ(lines[0].find('\n'), lines[0].size() - 1);
}

TEST(QueryHistoryStoreTest, ToJsonEscapesStrings) {
  std::shared_ptr<QueryRecord> r = MakeRecord("select \"x\"");
  r->error = "bad\nthing";
  r->status = "Internal";
  std::string json = r->ToJson();
  EXPECT_NE(json.find("\\\"x\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("bad\\nthing"), std::string::npos) << json;
}

// ---- Database integration ---------------------------------------------------

TEST(DatabaseHistoryTest, RecordsEveryStatementWithTimingAndCounters) {
  Database db;
  tu::LoadEmpDept(&db, 100, 5);
  size_t before = db.history()->size();
  Sql(&db, "SELECT count(*) FROM emp WHERE salary > 2000");

  std::vector<std::shared_ptr<const QueryRecord>> snap = db.history()->Snapshot();
  ASSERT_GT(snap.size(), before);
  const QueryRecord& rec = *snap.back();
  EXPECT_EQ(rec.verb, "select");
  EXPECT_EQ(rec.status, "OK");
  EXPECT_EQ(rec.sql, "select count(*) from emp where salary > ?");
  EXPECT_EQ(rec.rows_returned, 1u);
  EXPECT_GT(rec.wall_micros, 0u);
  EXPECT_GT(rec.metrics.tuples_processed, 0u);
  ASSERT_TRUE(rec.profile.valid);
  // The session and the history read one record, not copies.
  EXPECT_EQ(&db.last_metrics(), &rec.metrics);
  EXPECT_EQ(&db.last_profile(), &rec.profile);
  // The retained profile carries the est-vs-actual substrate.
  bool has_scan = false;
  ForEachOperator(rec.profile.root, [&](const OperatorProfile& op) {
    EXPECT_GE(op.q_error(), 1.0);
    if (op.op == "SeqScan" || op.op == "IndexScan") has_scan = true;
  });
  EXPECT_TRUE(has_scan);
}

TEST(DatabaseHistoryTest, RecordsFailingStatementsExactlyOnce) {
  Database db;
  tu::LoadEmpDept(&db, 50, 5);
  uint64_t appended_before = db.history()->total_appended();
  // Casting 'e0' to INT fails at runtime, after the scan has started (binder
  // does not type-check UPDATE assignments; CastTo does, per row).
  Result<QueryResult> r = db.Execute("UPDATE emp SET salary = name");
  EXPECT_FALSE(r.ok());

  EXPECT_EQ(db.history()->total_appended(), appended_before + 1);
  std::vector<std::shared_ptr<const QueryRecord>> snap = db.history()->Snapshot();
  ASSERT_FALSE(snap.empty());
  const QueryRecord& rec = *snap.back();
  EXPECT_EQ(rec.verb, "update");
  EXPECT_NE(rec.status, "OK");
  EXPECT_FALSE(rec.error.empty());
  // Satellite fix: the failing statement still reports the work it did —
  // captured once, on the error path. The scan went through the buffer pool.
  const ExecutionMetrics& m = db.last_metrics();
  EXPECT_GT(m.pool.hits + m.pool.misses, 0u);

  // And the next statement's metrics are its own (no carry-over).
  Sql(&db, "SELECT count(*) FROM dept");
  EXPECT_EQ(db.history()->Snapshot().back()->status, "OK");
}

// The executor path: a plan that fails mid-drive still captures counters for
// the work done before the failure, and exactly once.
TEST(DatabaseHistoryTest, FailingPlanExecutionStillCapturesCounters) {
  Database db;
  tu::LoadEmpDept(&db, 200, 5);
  Result<PhysicalPtr> plan = db.PlanQuery("SELECT * FROM emp");
  ASSERT_OK(plan.status());
  // An unbound column reference as the filter predicate fails on the first
  // evaluated row — after the scan has already produced tuples.
  PhysicalPtr failing = std::make_unique<PhysFilter>(plan.MoveValue(),
                                                     MakeColumnRef("emp", "salary"));
  Result<QueryResult> r = db.ExecutePlan(*failing);
  EXPECT_FALSE(r.ok());
  const ExecutionMetrics& m = db.last_metrics();
  EXPECT_TRUE(m.executed_plan);
  EXPECT_GT(m.tuples_processed, 0u);
  EXPECT_GT(m.pool.hits + m.pool.misses, 0u);
}

TEST(DatabaseHistoryTest, DdlAndDmlStatementsAreRecorded) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2)");
  std::vector<std::shared_ptr<const QueryRecord>> snap = db.history()->Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0]->verb, "create_table");
  EXPECT_EQ(snap[1]->verb, "insert");
  EXPECT_EQ(snap[1]->sql, "insert into t values (?), (?)");
  EXPECT_FALSE(snap[1]->profile.valid);

  // A statement that runs no plan leaves an empty profile behind, not the
  // previous SELECT's.
  Sql(&db, "SELECT a FROM t");
  ASSERT_TRUE(db.last_profile().valid);
  Sql(&db, "INSERT INTO t VALUES (3)");
  EXPECT_FALSE(db.last_profile().valid);
}

// A SELECT that fails during execution keeps what planning recorded: the
// plan-cache hit and the optimize time, in last_metrics() and the query log.
TEST(DatabaseHistoryTest, FailedSelectKeepsCacheHitAndOptimizeTime) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (2), (3)");
  const std::string overflow = "SELECT a * 9223372036854775807 FROM t";
  ASSERT_FALSE(db.Execute(overflow).ok());  // planned and cached, then overflows
  const uint64_t first_opt_nanos = db.last_metrics().opt_nanos;
  EXPECT_FALSE(db.last_metrics().plan_cache_hit);
  EXPECT_GT(first_opt_nanos, 0u);
  ASSERT_FALSE(db.Execute(overflow).ok());  // served from the plan cache
  EXPECT_TRUE(db.last_metrics().plan_cache_hit);
  EXPECT_EQ(db.last_metrics().opt_nanos, 0u);

  QueryResult log = Sql(&db,
                        "SELECT opt_us, plan_cache_hit FROM relopt_query_log() "
                        "WHERE verb = 'select'");
  ASSERT_EQ(log.rows.size(), 2u);
  EXPECT_EQ(log.rows[0].At(0).AsInt(), static_cast<int64_t>(first_opt_nanos / 1000));
  EXPECT_FALSE(log.rows[0].At(1).AsBool());
  EXPECT_EQ(log.rows[1].At(0).AsInt(), 0);
  EXPECT_TRUE(log.rows[1].At(1).AsBool());
}

// A plain EXPLAIN optimizes without executing; its optimize time reaches
// last_metrics() as well as the query log.
TEST(DatabaseHistoryTest, ExplainReportsItsOptimizeTime) {
  Database db;
  tu::LoadEmpDept(&db, 100, 5);
  Sql(&db, "EXPLAIN SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.id");
  const uint64_t opt_nanos = db.last_metrics().opt_nanos;
  EXPECT_GT(opt_nanos, 0u);
  QueryResult log = Sql(&db, "SELECT opt_us FROM relopt_query_log() WHERE verb = 'explain'");
  ASSERT_EQ(log.rows.size(), 1u);
  EXPECT_EQ(log.rows[0].At(0).AsInt(), static_cast<int64_t>(opt_nanos / 1000));
}

}  // namespace
}  // namespace relopt
