// Prepared statements: positional `?` parameters, rebinding across
// executions with different values and types, bind-time (not execute-time)
// type errors, DDL between executions, and interleaved prepare/execute from
// multiple sessions.
#include <string>
#include <vector>

#include "engine/session.h"
#include "test_util.h"

namespace relopt {
namespace {

using tu::IntCell;
using tu::LoadEmpDept;
using tu::Sql;

int64_t CountWhereSalaryAbove(PreparedStatement* stmt, int64_t threshold) {
  Result<QueryResult> r = stmt->Execute({Value::Int(threshold)});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->rows[0].At(0).AsInt() : -1;
}

TEST(PreparedStatementTest, RebindsDifferentValues) {
  Database db;
  LoadEmpDept(&db);
  Session* session = db.CreateSession();
  Result<PreparedStatement*> prepared =
      session->Prepare("SELECT count(*) FROM emp WHERE salary > ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedStatement* stmt = *prepared;
  EXPECT_EQ(stmt->num_parameters(), 1u);

  const int64_t all = CountWhereSalaryAbove(stmt, 0);
  const int64_t none = CountWhereSalaryAbove(stmt, 1000000);
  const int64_t some = CountWhereSalaryAbove(stmt, 3000);
  EXPECT_EQ(all, 1000);
  EXPECT_EQ(none, 0);
  EXPECT_GT(some, 0);
  EXPECT_LT(some, 1000);
  // Rebinding an earlier value reproduces its result exactly.
  EXPECT_EQ(CountWhereSalaryAbove(stmt, 0), all);
  EXPECT_EQ(CountWhereSalaryAbove(stmt, 3000), some);
}

TEST(PreparedStatementTest, MultipleParametersBindInOrder) {
  Database db;
  LoadEmpDept(&db);
  Session* session = db.CreateSession();
  Result<PreparedStatement*> prepared =
      session->Prepare("SELECT count(*) FROM emp WHERE salary > ? AND salary < ? AND dept_id = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedStatement* stmt = *prepared;
  ASSERT_EQ(stmt->num_parameters(), 3u);

  Result<QueryResult> narrow = stmt->Execute({Value::Int(2000), Value::Int(4000), Value::Int(3)});
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  const int64_t expected =
      IntCell(Sql(&db, "SELECT count(*) FROM emp "
                       "WHERE salary > 2000 AND salary < 4000 AND dept_id = 3"));
  EXPECT_EQ(narrow->rows[0].At(0).AsInt(), expected);
}

TEST(PreparedStatementTest, RebindsDifferentTypes) {
  Database db;
  LoadEmpDept(&db);
  Session* session = db.CreateSession();
  Result<PreparedStatement*> prepared =
      session->Prepare("SELECT count(*) FROM emp WHERE name = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedStatement* stmt = *prepared;

  Result<QueryResult> hit = stmt->Execute({Value::String("e7")});
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->rows[0].At(0).AsInt(), 1);

  // An INT against the TEXT column is a bind-time type error — the binder
  // rejects the comparison before any executor runs, so the statement
  // reports no execution work at all.
  Result<QueryResult> mismatch = stmt->Execute({Value::Int(7)});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_FALSE(session->last_metrics().executed_plan)
      << "type mismatch must fail at bind time, not during execution";
  std::shared_ptr<const QueryRecord> last = db.history()->Snapshot().back();
  EXPECT_NE(last->status, "OK");
  EXPECT_EQ(last->metrics.exec_nanos, 0u) << "no executor may have been driven";

  // The statement is not poisoned: the next well-typed execution succeeds.
  Result<QueryResult> again = stmt->Execute({Value::String("e9")});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows[0].At(0).AsInt(), 1);
}

TEST(PreparedStatementTest, ParameterCountMismatch) {
  Database db;
  LoadEmpDept(&db);
  Session* session = db.CreateSession();
  Result<PreparedStatement*> prepared =
      session->Prepare("SELECT count(*) FROM emp WHERE salary > ? AND dept_id = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedStatement* stmt = *prepared;
  EXPECT_FALSE(stmt->Execute({}).ok());
  EXPECT_FALSE(stmt->Execute({Value::Int(1)}).ok());
  EXPECT_FALSE(stmt->Execute({Value::Int(1), Value::Int(2), Value::Int(3)}).ok());
  EXPECT_TRUE(stmt->Execute({Value::Int(1), Value::Int(2)}).ok());
}

TEST(PreparedStatementTest, UnboundParameterInPlainExecuteFails) {
  Database db;
  LoadEmpDept(&db);
  Result<QueryResult> r = db.Execute("SELECT count(*) FROM emp WHERE id = ?");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("parameter"), std::string::npos)
      << r.status().ToString();
}

TEST(PreparedStatementTest, PreparedInsertAndDelete) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b TEXT)");
  Session* session = db.CreateSession();
  Result<PreparedStatement*> insert = session->Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  for (int i = 0; i < 5; ++i) {
    Result<QueryResult> r =
        (*insert)->Execute({Value::Int(i), Value::String("row" + std::to_string(i))});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(IntCell(Sql(&db, "SELECT count(*) FROM t")), 5);

  Result<PreparedStatement*> del = session->Prepare("DELETE FROM t WHERE a < ?");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  ASSERT_TRUE((*del)->Execute({Value::Int(3)}).ok());
  EXPECT_EQ(IntCell(Sql(&db, "SELECT count(*) FROM t")), 2);
}

TEST(PreparedStatementTest, ReprepareAfterDdl) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2), (3)");
  Session* session = db.CreateSession();
  Result<PreparedStatement*> prepared = session->Prepare("SELECT count(*) FROM t WHERE a > ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedStatement* stmt = *prepared;
  Result<QueryResult> before = stmt->Execute({Value::Int(1)});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows[0].At(0).AsInt(), 2);

  // Dropping the table makes every execution a bind error...
  Sql(&db, "DROP TABLE t");
  EXPECT_FALSE(stmt->Execute({Value::Int(1)}).ok());

  // ...and re-creating a compatible schema revives it (each execution
  // re-binds against the live catalog).
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (10)");
  Result<QueryResult> revived = stmt->Execute({Value::Int(1)});
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(revived->rows[0].At(0).AsInt(), 1);

  // An incompatible re-create surfaces as a bind error; re-preparing against
  // the new shape is the fix.
  Sql(&db, "DROP TABLE t");
  Sql(&db, "CREATE TABLE t (renamed INT)");
  Sql(&db, "INSERT INTO t VALUES (100)");
  EXPECT_FALSE(stmt->Execute({Value::Int(1)}).ok());
  Result<PreparedStatement*> reprepared =
      session->Prepare("SELECT count(*) FROM t WHERE renamed > ?");
  ASSERT_TRUE(reprepared.ok()) << reprepared.status().ToString();
  Result<QueryResult> fresh = (*reprepared)->Execute({Value::Int(1)});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->rows[0].At(0).AsInt(), 1);
}

TEST(PreparedStatementTest, InterleavedAcrossSessions) {
  Database db;
  LoadEmpDept(&db);
  Session* s1 = db.CreateSession();
  Session* s2 = db.CreateSession();

  Result<PreparedStatement*> p1 = s1->Prepare("SELECT count(*) FROM emp WHERE salary > ?");
  Result<PreparedStatement*> p2 = s2->Prepare("SELECT count(*) FROM emp WHERE dept_id = ?");
  ASSERT_TRUE(p1.ok() && p2.ok());

  // Interleave executions; each session's prepared statement and
  // last-statement metrics stay independent.
  for (int round = 0; round < 3; ++round) {
    Result<QueryResult> r1 = (*p1)->Execute({Value::Int(3000)});
    ASSERT_TRUE(r1.ok());
    const int64_t above = r1->rows[0].At(0).AsInt();
    Result<QueryResult> r2 = (*p2)->Execute({Value::Int(round)});
    ASSERT_TRUE(r2.ok());
    const int64_t in_dept = r2->rows[0].At(0).AsInt();
    EXPECT_EQ(in_dept, 50);  // 1000 rows over 20 departments
    EXPECT_GT(above, 0);
    // s1's metrics were not clobbered by s2's execution.
    EXPECT_EQ(s1->last_profile().root.stats.rows_produced, 1u);
    EXPECT_EQ(s2->last_profile().root.stats.rows_produced, 1u);
  }
  // A session can also prepare mid-stream without disturbing the other's
  // statements.
  Result<PreparedStatement*> p3 = s2->Prepare("SELECT name FROM emp WHERE id = ?");
  ASSERT_TRUE(p3.ok());
  Result<QueryResult> named = (*p3)->Execute({Value::Int(42)});
  ASSERT_TRUE(named.ok());
  ASSERT_EQ(named->rows.size(), 1u);
  EXPECT_EQ(named->rows[0].At(0).AsString(), "e42");
  EXPECT_TRUE((*p1)->Execute({Value::Int(0)}).ok());
}

// Identical parameter values reuse the cached plan; different values plan
// separately (the key encodes the rendered parameters).
TEST(PreparedStatementTest, ParameterValuesPartitionThePlanCache) {
  Database db;
  LoadEmpDept(&db);
  Session* session = db.CreateSession();
  Result<PreparedStatement*> prepared =
      session->Prepare("SELECT count(*) FROM emp WHERE salary > ?");
  ASSERT_TRUE(prepared.ok());
  PreparedStatement* stmt = *prepared;

  ASSERT_TRUE(stmt->Execute({Value::Int(2500)}).ok());
  EXPECT_FALSE(session->last_metrics().plan_cache_hit);
  ASSERT_TRUE(stmt->Execute({Value::Int(2500)}).ok());
  EXPECT_TRUE(session->last_metrics().plan_cache_hit);
  ASSERT_TRUE(stmt->Execute({Value::Int(9999)}).ok());
  EXPECT_FALSE(session->last_metrics().plan_cache_hit)
      << "different parameter values must not share a cache entry";
}

// Doubles that print alike at six decimals are still different bindings: a
// shared cache entry would answer with the other value's folded literal.
TEST(PreparedStatementTest, NearbyDoubleParametersDoNotShareAPlan) {
  Database db;
  Sql(&db, "CREATE TABLE t (d DOUBLE)");
  Sql(&db, "INSERT INTO t VALUES (0.0000002), (0.5)");
  Session* session = db.CreateSession();
  Result<PreparedStatement*> prepared = session->Prepare("SELECT count(*) FROM t WHERE d < ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedStatement* stmt = *prepared;

  Result<QueryResult> above = stmt->Execute({Value::Double(0.0000004)});
  ASSERT_TRUE(above.ok()) << above.status().ToString();
  EXPECT_EQ(above->rows[0].At(0).AsInt(), 1);
  Result<QueryResult> below = stmt->Execute({Value::Double(0.0000001)});
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  EXPECT_FALSE(session->last_metrics().plan_cache_hit);
  EXPECT_EQ(below->rows[0].At(0).AsInt(), 0);
  EXPECT_EQ(IntCell(Sql(&db, "SELECT count(*) FROM t WHERE d < 0.0000001")), 0);
}

}  // namespace
}  // namespace relopt
