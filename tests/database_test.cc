// Database facade tests: DDL/DML/query lifecycle, metrics, errors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/session.h"
#include "test_util.h"

namespace relopt {
namespace {

using tu::Sql;

TEST(DatabaseTest, CreateInsertSelect) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b TEXT)");
  Sql(&db, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  QueryResult r = Sql(&db, "SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 1);
  EXPECT_EQ(r.rows[1].At(1).AsString(), "y");
}

TEST(DatabaseTest, InsertWithColumnListAndDefaultsNulls) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b TEXT, c DOUBLE)");
  Sql(&db, "INSERT INTO t (c, a) VALUES (2.5, 7)");
  QueryResult r = Sql(&db, "SELECT a, b, c FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 7);
  EXPECT_TRUE(r.rows[0].At(1).is_null());
  EXPECT_DOUBLE_EQ(r.rows[0].At(2).AsDouble(), 2.5);
}

TEST(DatabaseTest, InsertCastsLiteralsToColumnTypes) {
  Database db;
  Sql(&db, "CREATE TABLE t (d DOUBLE)");
  Sql(&db, "INSERT INTO t VALUES (3)");  // int literal into double column
  QueryResult r = Sql(&db, "SELECT d FROM t");
  EXPECT_DOUBLE_EQ(r.rows[0].At(0).AsDouble(), 3.0);
}

TEST(DatabaseTest, InsertArityMismatchFails) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b INT)");
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t (a) VALUES (1, 2)").ok());
}

TEST(DatabaseTest, DeleteWithPredicate) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2), (3), (4)");
  Sql(&db, "DELETE FROM t WHERE a % 2 = 0");
  QueryResult r = Sql(&db, "SELECT a FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 1);
  EXPECT_EQ(r.rows[1].At(0).AsInt(), 3);
}

TEST(DatabaseTest, DeleteAll) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2)");
  Sql(&db, "DELETE FROM t");
  EXPECT_TRUE(Sql(&db, "SELECT * FROM t").rows.empty());
}

TEST(DatabaseTest, DeleteMaintainsIndexes) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2), (3)");
  Sql(&db, "CREATE INDEX idx_a ON t (a)");
  Sql(&db, "DELETE FROM t WHERE a = 2");
  // Query through the index (point predicate will use it).
  Sql(&db, "ANALYZE");
  QueryResult r = Sql(&db, "SELECT a FROM t WHERE a = 2");
  EXPECT_TRUE(r.rows.empty());
  QueryResult r1 = Sql(&db, "SELECT a FROM t WHERE a = 3");
  EXPECT_EQ(r1.rows.size(), 1u);
}

TEST(DatabaseTest, ScriptExecutionReturnsLastSelect) {
  Database db;
  QueryResult r = Sql(&db,
                      "CREATE TABLE t (a INT); "
                      "INSERT INTO t VALUES (5); "
                      "SELECT a FROM t; ");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 5);
}

TEST(DatabaseTest, MetricsCaptureIoAndRows) {
  Database db;
  tu::LoadEmpDept(&db, 500, 10);
  db.ResetCounters();
  Sql(&db, "SELECT count(*) FROM emp");
  const ExecutionMetrics& m = db.last_metrics();
  EXPECT_EQ(db.last_profile().root.stats.rows_produced, 1u);
  EXPECT_GT(m.tuples_processed, 500u);  // scan + aggregate
  EXPECT_GT(m.pool.hits + m.pool.misses, 0u);
}

TEST(DatabaseTest, ErrorsAreStatusNotCrashes) {
  Database db;
  EXPECT_EQ(db.Execute("SELECT * FROM missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.Execute("SELEC 1").status().code(), StatusCode::kParseError);
  Sql(&db, "CREATE TABLE t (a INT)");
  EXPECT_EQ(db.Execute("CREATE TABLE t (a INT)").status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db.Execute("SELECT b FROM t").status().code(), StatusCode::kBindError);
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES ('not an int')").ok());
}

TEST(DatabaseTest, ExplainStatement) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1)");
  QueryResult r = Sql(&db, "EXPLAIN SELECT a FROM t WHERE a = 1");
  ASSERT_FALSE(r.rows.empty());
  bool found_scan = false;
  for (const Tuple& row : r.rows) {
    if (row.At(0).AsString().find("SeqScan") != std::string::npos) found_scan = true;
  }
  EXPECT_TRUE(found_scan);
}

TEST(DatabaseTest, ExplainAnalyzeIncludesActuals) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2)");
  QueryResult r = Sql(&db, "EXPLAIN ANALYZE SELECT a FROM t");
  bool found_actual = false;
  for (const Tuple& row : r.rows) {
    if (row.At(0).AsString().find("actual:") != std::string::npos) found_actual = true;
  }
  EXPECT_TRUE(found_actual);
}

TEST(DatabaseTest, AnalyzeAllTables) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "CREATE TABLE u (b INT)");
  Sql(&db, "INSERT INTO t VALUES (1)");
  Sql(&db, "INSERT INTO u VALUES (2)");
  Sql(&db, "ANALYZE");
  EXPECT_TRUE((*db.catalog()->GetTable("t"))->has_stats());
  EXPECT_TRUE((*db.catalog()->GetTable("u"))->has_stats());
}

TEST(DatabaseTest, FromlessSelect) {
  Database db;
  QueryResult r = Sql(&db, "SELECT 2 + 3, 'hi'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 5);
  EXPECT_EQ(r.rows[0].At(1).AsString(), "hi");
}

TEST(DatabaseTest, ResultToStringRendersTable) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b TEXT)");
  Sql(&db, "INSERT INTO t VALUES (1, 'x')");
  std::string text = Sql(&db, "SELECT a, b FROM t").ToString();
  EXPECT_NE(text.find("t.a"), std::string::npos);
  EXPECT_NE(text.find("'x'"), std::string::npos);
  EXPECT_NE(text.find("(1 rows)"), std::string::npos);
}

TEST(DatabaseTest, SmallBufferPoolStillWorks) {
  SessionOptions options;
  options.buffer_pool_pages = 12;
  Database db(options);
  tu::LoadEmpDept(&db, 3000, 8);
  QueryResult r = Sql(&db, "SELECT count(*) FROM emp, dept WHERE emp.dept_id = dept.id");
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 3000);
  // With 800 rows over many pages and a 12-page pool, evictions must happen.
  EXPECT_GT(db.pool()->stats().evictions, 0u);
}

TEST(DatabaseTest, UpdateWithPredicate) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b INT)");
  Sql(&db, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  Sql(&db, "UPDATE t SET b = b + 100 WHERE a >= 2");
  QueryResult r = Sql(&db, "SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 10);
  EXPECT_EQ(r.rows[1].At(1).AsInt(), 120);
  EXPECT_EQ(r.rows[2].At(1).AsInt(), 130);
}

TEST(DatabaseTest, UpdateAllRowsMultipleColumns) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b TEXT)");
  Sql(&db, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  Sql(&db, "UPDATE t SET a = a * 2, b = 'z'");
  QueryResult r = Sql(&db, "SELECT a, b FROM t ORDER BY a");
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 2);
  EXPECT_EQ(r.rows[1].At(0).AsInt(), 4);
  EXPECT_EQ(r.rows[0].At(1).AsString(), "z");
}

TEST(DatabaseTest, UpdateReadsOldValues) {
  // Swap-style update: both assignments see the row's pre-update image.
  Database db;
  Sql(&db, "CREATE TABLE t (a INT, b INT)");
  Sql(&db, "INSERT INTO t VALUES (1, 2)");
  Sql(&db, "UPDATE t SET a = b, b = a");
  QueryResult r = Sql(&db, "SELECT a, b FROM t");
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 2);
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 1);
}

TEST(DatabaseTest, UpdateMaintainsIndexes) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1), (2), (3)");
  Sql(&db, "CREATE INDEX idx_upd ON t (a)");
  Sql(&db, "ANALYZE");
  Sql(&db, "UPDATE t SET a = 99 WHERE a = 2");
  // Point queries go through the index; both old and new keys must be right.
  EXPECT_TRUE(Sql(&db, "SELECT a FROM t WHERE a = 2").rows.empty());
  EXPECT_EQ(Sql(&db, "SELECT a FROM t WHERE a = 99").rows.size(), 1u);
  IndexInfo* idx = *db.catalog()->GetIndex("idx_upd");
  EXPECT_EQ(*idx->tree->NumEntries(), 3u);
}

TEST(DatabaseTest, UpdateErrors) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (1)");
  EXPECT_FALSE(db.Execute("UPDATE missing SET a = 1").ok());
  EXPECT_FALSE(db.Execute("UPDATE t SET nope = 1").ok());
  EXPECT_FALSE(db.Execute("UPDATE t SET a = 'not an int' WHERE a = 1").ok());
  // The failed update must not have clobbered the row.
  EXPECT_EQ(Sql(&db, "SELECT a FROM t").rows[0].At(0).AsInt(), 1);
}

TEST(DatabaseTest, UpdateCastsToColumnType) {
  Database db;
  Sql(&db, "CREATE TABLE t (d DOUBLE)");
  Sql(&db, "INSERT INTO t VALUES (1.5)");
  Sql(&db, "UPDATE t SET d = 3");
  QueryResult r = Sql(&db, "SELECT d FROM t");
  EXPECT_DOUBLE_EQ(r.rows[0].At(0).AsDouble(), 3.0);
}

// A NULL literal has no type of its own: it takes the one its context asks
// for, in a constant expression (which folding binds, then evaluates), a
// VALUES row, a WHERE, a SET and a prepared statement's NULL value alike.
TEST(DatabaseTest, NullLiteralTakesTheTypeItsContextNeeds) {
  Database db;
  auto scalar = [&db](const std::string& sql) {
    QueryResult r = Sql(&db, sql);
    return r.rows.size() == 1 ? r.rows[0].At(0).ToString() : "<no single row>";
  };
  EXPECT_EQ(scalar("SELECT coalesce(NULL, 'a')"), "'a'");
  EXPECT_EQ(scalar("SELECT length(NULL)"), "NULL");
  EXPECT_EQ(scalar("SELECT NULL = 'x'"), "NULL");
  EXPECT_EQ(scalar("SELECT upper(NULL)"), "NULL");
  EXPECT_EQ(scalar("SELECT nullif('x', NULL)"), "'x'");
  EXPECT_EQ(scalar("SELECT NOT NULL"), "NULL");

  Sql(&db, "CREATE TABLE t (i INT, s TEXT)");
  Sql(&db, "INSERT INTO t VALUES (1, coalesce(NULL, 'x')), (2, 'y')");
  EXPECT_EQ(scalar("SELECT s FROM t WHERE i = 1"), "'x'");
  EXPECT_EQ(scalar("SELECT i FROM t WHERE s = coalesce(NULL, 'x')"), "1");
  Sql(&db, "UPDATE t SET s = upper(NULL) WHERE i = 2");
  EXPECT_EQ(scalar("SELECT s FROM t WHERE i = 2"), "NULL");

  Result<PreparedStatement*> prepared = db.CreateSession()->Prepare("SELECT coalesce(?, 'x')");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<QueryResult> r = (*prepared)->Execute({Value::Null()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].At(0).ToString(), "'x'");
}

// The same holds beside a column: a NULL literal next to a TEXT or BOOL
// column takes that column's type.
TEST(DatabaseTest, NullLiteralTakesTheTypeOfTheColumnBesideIt) {
  Database db;
  Sql(&db, "CREATE TABLE t (i INT, s TEXT, b BOOL)");
  Sql(&db, "INSERT INTO t VALUES (1, 'a', TRUE), (2, NULL, FALSE)");
  auto column = [&db](const std::string& sql) {
    std::vector<std::string> out;
    for (const Tuple& row : Sql(&db, sql).rows) out.push_back(row.At(0).ToString());
    return out;
  };
  using Column = std::vector<std::string>;
  EXPECT_EQ(column("SELECT i FROM t WHERE s = NULL"), Column{});
  EXPECT_EQ(column("SELECT coalesce(s, NULL, 'z') FROM t ORDER BY i"), (Column{"'a'", "'z'"}));
  EXPECT_EQ(column("SELECT CASE WHEN i > 1 THEN NULL ELSE s END FROM t ORDER BY i"),
            (Column{"'a'", "NULL"}));
  EXPECT_EQ(column("SELECT nullif(NULL, s) FROM t ORDER BY i"), (Column{"NULL", "NULL"}));
  EXPECT_EQ(column("SELECT b AND NULL FROM t ORDER BY i"), (Column{"NULL", "false"}));
}

// A constant expression type-checks like the same expression over columns,
// because folding binds it before it evaluates it: mixing a number with a
// string is a TypeError even where the first argument alone decides the
// value.
TEST(DatabaseTest, ConstantsTypeCheckLikeColumns) {
  Database db;
  Sql(&db, "CREATE TABLE t (i INT, b BOOL, s TEXT)");
  Sql(&db, "INSERT INTO t VALUES (1, TRUE, 'a')");
  Status folded = db.Execute("SELECT coalesce(1, 'x')").status();
  EXPECT_EQ(folded.ToString(),
            "TypeError: coalesce branches mix incompatible types int64 and string");
  EXPECT_EQ(folded.ToString(), db.Execute("SELECT coalesce(i, 'x') FROM t").status().ToString());
  folded = db.Execute("SELECT 'x' + NULL").status();
  EXPECT_EQ(folded.ToString(), "TypeError: arithmetic needs numeric operands in ('x' + NULL)");
  EXPECT_EQ(db.Execute("SELECT s + NULL FROM t").status().code(), StatusCode::kTypeError);
  // Folding drops a neutral or deciding TRUE/FALSE, or a CASE arm, only
  // where the binder would accept what it drops or leaves standing alone.
  const struct {
    const char* constant;
    const char* column;
    const char* error;
  } logical[] = {
      {"SELECT TRUE AND i FROM t", "SELECT b AND i FROM t",
       "TypeError: logical operand t.i is not boolean"},
      {"SELECT i OR FALSE FROM t", "SELECT i OR b FROM t",
       "TypeError: logical operand t.i is not boolean"},
      {"SELECT TRUE AND 1", "SELECT b AND 1 FROM t", "TypeError: logical operand 1 is not boolean"},
      {"SELECT FALSE AND 'x'", "SELECT b AND 'x' FROM t",
       "TypeError: logical operand 'x' is not boolean"},
  };
  for (const auto& c : logical) {
    EXPECT_EQ(db.Execute(c.constant).status().ToString(), c.error) << c.constant;
    EXPECT_EQ(db.Execute(c.column).status().ToString(), c.error) << c.column;
  }
  EXPECT_EQ(db.Execute("SELECT CASE WHEN 'x' THEN 1 ELSE 2 END").status().ToString(),
            "TypeError: CASE WHEN condition 'x' is not boolean");
  EXPECT_EQ(db.Execute("SELECT CASE WHEN s THEN 1 ELSE 2 END FROM t").status().ToString(),
            "TypeError: CASE WHEN condition t.s is not boolean");
}

TEST(DatabaseTest, SelfJoinWithAliases) {
  Database db;
  Sql(&db, "CREATE TABLE t (id INT, boss INT)");
  Sql(&db, "INSERT INTO t VALUES (1, 3), (2, 3), (3, 0)");
  QueryResult r = Sql(&db,
                      "SELECT e.id, m.id FROM t e, t m WHERE e.boss = m.id ORDER BY e.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 3);
}

}  // namespace
}  // namespace relopt
