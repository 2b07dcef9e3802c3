// Encoded keys must agree with Value::Compare: two INTs beyond 2^53 that
// round to the same double stay apart in GROUP BY, DISTINCT, ORDER BY, hash
// joins, index scans and index nested-loop joins, and -0.0 groups with 0.0.
// An INT = DOUBLE join keeps comparing as doubles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "test_util.h"

namespace relopt {
namespace {

using tu::Sql;

constexpr int64_t k2To53 = int64_t{1} << 53;  // 9007199254740992

std::vector<std::string> Rows(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) rows.push_back(t.ToString());
  return rows;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool HasOp(const OperatorProfile& p, const std::string& op) {
  if (p.op == op) return true;
  for (const OperatorProfile& c : p.children) {
    if (HasOp(c, op)) return true;
  }
  return false;
}

class KeyExactnessTest : public ::testing::Test {
 protected:
  /// `a(k, v)` holds 2^53 + 1 and 2^53, which are one double apart.
  void LoadPair() {
    Sql(&db_, "CREATE TABLE a (k INT, v INT)");
    Sql(&db_, "INSERT INTO a VALUES (9007199254740993, 1), (9007199254740992, 2)");
  }

  /// `a(k, v)` holds the INTs that share a double with their neighbour at
  /// +-2^53, and 1,000 rows (i, i); `a.k` is indexed and analyzed.
  void LoadIndexedPairs() {
    Sql(&db_, "CREATE TABLE a (k INT, v INT)");
    Sql(&db_,
        "INSERT INTO a VALUES (9007199254740993, 1), (9007199254740992, 2), "
        "(-9007199254740993, 3), (-9007199254740992, 4)");
    std::string values;
    for (int i = 0; i < 1000; ++i) {
      values += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " + std::to_string(i) + ")";
    }
    Sql(&db_, "INSERT INTO a VALUES " + values);
    Sql(&db_, "CREATE INDEX a_k ON a (k)");
    Sql(&db_, "ANALYZE");
  }

  /// Leaves the optimizer only hash joins.
  void ForceHashJoins() {
    JoinEnumOptions& join = db_.options().optimizer.join;
    join.enable_nlj = join.enable_bnlj = join.enable_inlj = join.enable_smj = false;
  }

  /// Runs `sql` at parallelism 1 and 4 (partitioned build); both must plan
  /// a HashJoin and return `expected` as a bag.
  void ExpectHashJoinRows(const std::string& sql, const std::vector<std::string>& expected) {
    for (size_t parallelism : {1, 4}) {
      db_.set_parallelism(parallelism);
      QueryResult r = Sql(&db_, sql);
      ASSERT_TRUE(HasOp(db_.last_profile().root, "HashJoin")) << db_.last_profile().ToText();
      EXPECT_EQ(Sorted(Rows(r)), expected) << sql << " @ parallelism " << parallelism;
    }
    db_.set_parallelism(1);
  }

  Database db_;
};

TEST_F(KeyExactnessTest, GroupByKeepsIntsBeyond2To53Apart) {
  LoadPair();
  QueryResult r = Sql(&db_, "SELECT k, count(*) FROM a GROUP BY k");
  EXPECT_EQ(Sorted(Rows(r)),
            (std::vector<std::string>{"(9007199254740992, 1)", "(9007199254740993, 1)"}));
}

TEST_F(KeyExactnessTest, DistinctKeepsIntsBeyond2To53Apart) {
  LoadPair();
  QueryResult r = Sql(&db_, "SELECT DISTINCT k FROM a");
  EXPECT_EQ(Sorted(Rows(r)),
            (std::vector<std::string>{"(9007199254740992)", "(9007199254740993)"}));
}

TEST_F(KeyExactnessTest, HashJoinKeepsIntsBeyond2To53Apart) {
  LoadPair();
  Sql(&db_, "CREATE TABLE b (k INT, w INT)");
  Sql(&db_, "INSERT INTO b VALUES (9007199254740992, 10)");
  for (int i = 0; i < 300; ++i) {
    const std::string n = std::to_string(i);
    Sql(&db_, "INSERT INTO a VALUES (" + n + ", " + n + ")");
    Sql(&db_, "INSERT INTO b VALUES (" + std::to_string(i + 1000) + ", " + n + ")");
  }
  Sql(&db_, "ANALYZE");
  ForceHashJoins();
  ExpectHashJoinRows("SELECT a.v, b.w FROM a, b WHERE a.k = b.k", {"(2, 10)"});
}

TEST_F(KeyExactnessTest, IndexScanBoundsAt2To53MatchSeqScan) {
  LoadIndexedPairs();
  const char* const ops[] = {"=", "<", "<=", ">", ">="};
  const int64_t constants[] = {k2To53, k2To53 + 1, -k2To53, -k2To53 - 1};
  for (int64_t c : constants) {
    // A window on the same side of zero keeps every range selective.
    const std::string window = c > 0 ? " AND k > 9007199254740000" : " AND k < -9007199254740000";
    for (const char* op : ops) {
      const std::string sql =
          "SELECT v FROM a WHERE k " + std::string(op) + " " + std::to_string(c) + window;
      db_.options().optimizer.join.enable_index_scans = true;
      std::vector<std::string> indexed = Sorted(Rows(Sql(&db_, sql)));
      ASSERT_TRUE(HasOp(db_.last_profile().root, "IndexScan")) << sql;
      db_.options().optimizer.join.enable_index_scans = false;
      std::vector<std::string> scanned = Sorted(Rows(Sql(&db_, sql)));
      ASSERT_FALSE(HasOp(db_.last_profile().root, "IndexScan")) << sql;
      EXPECT_EQ(indexed, scanned) << sql;
    }
  }
  db_.options().optimizer.join.enable_index_scans = true;
  EXPECT_EQ(Rows(Sql(&db_, "SELECT v FROM a WHERE k = 9007199254740992")),
            (std::vector<std::string>{"(2)"}));
}

TEST_F(KeyExactnessTest, IndexNestedLoopJoinMatchesHashJoinAt2To53) {
  LoadIndexedPairs();
  Sql(&db_, "CREATE TABLE b (k INT, w INT)");
  Sql(&db_, "INSERT INTO b VALUES (9007199254740992, 20), (-9007199254740993, 30)");
  Sql(&db_, "ANALYZE");
  const std::string sql = "SELECT b.w, a.v FROM b, a WHERE b.k = a.k";
  JoinEnumOptions& join = db_.options().optimizer.join;
  join.enable_nlj = join.enable_bnlj = join.enable_smj = join.enable_hash = false;
  std::vector<std::string> inlj = Sorted(Rows(Sql(&db_, sql)));
  ASSERT_TRUE(HasOp(db_.last_profile().root, "IndexNestedLoopJoin"))
      << db_.last_profile().ToText();
  join.enable_hash = true;
  join.enable_inlj = false;
  ExpectHashJoinRows(sql, inlj);
  EXPECT_EQ(inlj, (std::vector<std::string>{"(20, 2)", "(30, 3)"}));
}

TEST_F(KeyExactnessTest, OrderByOrdersIntsBeyond2To53Exactly) {
  Sql(&db_, "CREATE TABLE a (k INT)");
  Sql(&db_,
      "INSERT INTO a VALUES (9007199254740993), (9007199254740992), (9007199254740995), "
      "(9007199254740994), (-9007199254740993), (-9007199254740994)");
  EXPECT_EQ(Rows(Sql(&db_, "SELECT k FROM a ORDER BY k")),
            (std::vector<std::string>{"(-9007199254740994)", "(-9007199254740993)",
                                      "(9007199254740992)", "(9007199254740993)",
                                      "(9007199254740994)", "(9007199254740995)"}));
  EXPECT_EQ(Rows(Sql(&db_, "SELECT k FROM a ORDER BY k DESC")),
            (std::vector<std::string>{"(9007199254740995)", "(9007199254740994)",
                                      "(9007199254740993)", "(9007199254740992)",
                                      "(-9007199254740993)", "(-9007199254740994)"}));
}

TEST_F(KeyExactnessTest, NegativeZeroGroupsAndJoinsWithZero) {
  Sql(&db_, "CREATE TABLE d (x DOUBLE, v INT)");
  Sql(&db_, "INSERT INTO d VALUES (0.0, 1), (-0.0, 2)");
  EXPECT_EQ(Rows(Sql(&db_, "SELECT count(*) FROM d WHERE x = 0.0")),
            (std::vector<std::string>{"(2)"}));
  EXPECT_EQ(Rows(Sql(&db_, "SELECT count(*) FROM d GROUP BY x")),
            (std::vector<std::string>{"(2)"}));
  Sql(&db_, "CREATE TABLE e (x DOUBLE, w INT)");
  Sql(&db_, "INSERT INTO e VALUES (0.0, 10)");
  ForceHashJoins();
  ExpectHashJoinRows("SELECT d.v, e.w FROM d, e WHERE d.x = e.x", {"(1, 10)", "(2, 10)"});
}

TEST_F(KeyExactnessTest, IntEqualsDoubleHashJoinComparesAsDoubles) {
  Sql(&db_, "CREATE TABLE a (k INT, v INT)");
  Sql(&db_, "INSERT INTO a VALUES (3, 1), (9007199254740993, 2), (4, 3)");
  Sql(&db_, "CREATE TABLE c (x DOUBLE, w INT)");
  Sql(&db_, "INSERT INTO c VALUES (3.0, 10), (9007199254740992.0, 20), (4.5, 30)");
  ForceHashJoins();
  // 2^53 + 1 as a double is 2^53, so Value::Compare calls the pair equal.
  ExpectHashJoinRows("SELECT a.v, c.w FROM a, c WHERE a.k = c.x", {"(1, 10)", "(2, 20)"});
}

TEST_F(KeyExactnessTest, SerialGroupByEmitsNullThenIntsInNumericOrder) {
  Sql(&db_, "CREATE TABLE g (k INT)");
  const std::vector<int64_t> keys = {5,         -3,        k2To53 + 2,    -k2To53 - 2,
                                     k2To53,    -k2To53,   INT64_MAX,     INT64_MIN + 1,
                                     0,         k2To53 * 8, -k2To53 * 8};
  for (int64_t k : keys) Sql(&db_, "INSERT INTO g VALUES (" + std::to_string(k) + ")");
  Sql(&db_, "INSERT INTO g VALUES (NULL)");
  std::vector<int64_t> ascending = keys;
  std::sort(ascending.begin(), ascending.end());
  std::vector<std::string> expected = {"(NULL)"};
  for (int64_t k : ascending) expected.push_back("(" + std::to_string(k) + ")");
  EXPECT_EQ(Rows(Sql(&db_, "SELECT k FROM g GROUP BY k")), expected);
}

}  // namespace
}  // namespace relopt
