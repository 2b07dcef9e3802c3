// Statements that would wrap, trap or exhaust the stack must fail with a
// Status, identically in every execution mode: checked int64 arithmetic in
// the batch kernels at every batch size (in filters, projections, join
// predicates and DML alike), and the parser's expression-depth limit. A
// statement that fails on a bad value must write nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parser/parser.h"
#include "test_util.h"

namespace relopt {
namespace {

using tu::Sql;

/// Batch sizes 1, 7 and 1024, serial and at parallelism 4.
struct Mode {
  size_t batch_size;
  size_t parallelism;
};
const Mode kModes[] = {{1, 1}, {7, 1}, {1024, 1}, {1, 4}, {7, 4}, {1024, 4}};

std::string ModeName(const Mode& m) {
  return "batch " + std::to_string(m.batch_size) + " @ parallelism " +
         std::to_string(m.parallelism);
}

class StatementRobustnessTest : public ::testing::Test {
 protected:
  StatementRobustnessTest() {
    Sql(&db_, "CREATE TABLE big (a INT)");
    Sql(&db_, "INSERT INTO big VALUES (9223372036854775800)");
    Sql(&db_, "CREATE TABLE small (a INT)");
    Sql(&db_, "INSERT INTO small VALUES (-9223372036854775807)");
  }

  Result<QueryResult> Run(const std::string& sql, const Mode& m) {
    db_.set_batch_size(m.batch_size);
    db_.set_parallelism(m.parallelism);
    Result<QueryResult> r = db_.Execute(sql);
    db_.set_parallelism(1);
    db_.set_batch_size(TupleBatch::kDefaultCapacity);
    return r;
  }

  /// The rows of `big`, which a failed statement must leave as they were.
  std::vector<std::string> BigRows() {
    std::vector<std::string> rows;
    for (const Tuple& row : Sql(&db_, "SELECT a FROM big").rows) rows.push_back(row.ToString());
    return rows;
  }

  /// `sql` fails with OutOfRange "integer overflow in <expr>" in every mode.
  void ExpectOverflowEverywhere(const std::string& sql, const std::string& expr) {
    for (const Mode& m : kModes) {
      Result<QueryResult> r = Run(sql, m);
      ASSERT_FALSE(r.ok()) << sql << " in " << ModeName(m);
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << sql << " in " << ModeName(m);
      EXPECT_EQ(r.status().message(), "integer overflow in " + expr)
          << sql << " in " << ModeName(m);
    }
  }

  Database db_;
};

TEST_F(StatementRobustnessTest, AdditionOverflowRaisesInsteadOfWrapping) {
  ExpectOverflowEverywhere("SELECT a + 100 FROM big", "(big.a + 100)");
}

TEST_F(StatementRobustnessTest, SubtractionOverflowRaises) {
  ExpectOverflowEverywhere("SELECT a - 100 FROM small", "(small.a - 100)");
}

TEST_F(StatementRobustnessTest, MultiplicationOverflowRaises) {
  ExpectOverflowEverywhere("SELECT a * 2 FROM big", "(big.a * 2)");
}

TEST_F(StatementRobustnessTest, AggregateArgumentOverflowRaises) {
  // Aggregate arguments run through the same checked kernels, so SUM and MAX
  // see the error rather than a wrapped value.
  ExpectOverflowEverywhere("SELECT sum(a + 100) FROM big", "(big.a + 100)");
  ExpectOverflowEverywhere("SELECT max(a + 100) FROM big", "(big.a + 100)");
}

TEST_F(StatementRobustnessTest, JoinPredicateOverflowRaises) {
  ExpectOverflowEverywhere("SELECT big.a, small.a FROM big, small WHERE big.a + 100 > small.a",
                           "(big.a + 100)");
}

TEST_F(StatementRobustnessTest, HashJoinResidualOverflowRaises) {
  JoinEnumOptions& join = db_.options().optimizer.join;
  join.enable_nlj = join.enable_bnlj = join.enable_inlj = join.enable_smj = false;
  const std::string sql =
      "SELECT b1.a FROM big b1, big b2 WHERE b1.a = b2.a AND b1.a + 100 > b2.a";
  Result<PhysicalPtr> plan = db_.PlanQuery(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE((*plan)->ToString().find("HashJoin"), std::string::npos) << (*plan)->ToString();
  // At parallelism 4 the residual runs inside the Gather's workers.
  ExpectOverflowEverywhere(sql, "(b1.a + 100)");
}

TEST_F(StatementRobustnessTest, DmlOverflowRaisesAndWritesNothing) {
  const std::vector<std::string> before = BigRows();
  ExpectOverflowEverywhere("UPDATE big SET a = a + 100", "(big.a + 100)");
  EXPECT_EQ(BigRows(), before);
  ExpectOverflowEverywhere("DELETE FROM big WHERE a + 100 > 0", "(big.a + 100)");
  EXPECT_EQ(BigRows(), before);
  ExpectOverflowEverywhere("INSERT INTO big VALUES (9223372036854775807 + 1)",
                           "(9223372036854775807 + 1)");
  EXPECT_EQ(BigRows(), before);
}

// A predicate's conjuncts run one after another, each over the rows the
// earlier ones accepted, in joins and DML as in a Filter: a row whose first
// conjunct is NULL is rejected before a later, overflowing conjunct sees it.
TEST_F(StatementRobustnessTest, NullConjunctRejectsARowBeforeALaterOneRuns) {
  const std::string join =
      "SELECT big.a, small.a FROM big, small "
      "WHERE nullif(big.a, big.a) < small.a AND big.a + 100 > small.a";
  const std::string del = "DELETE FROM big WHERE nullif(a, a) > 0 AND a + 100 > 0";
  const std::vector<std::string> before = BigRows();
  for (const Mode& m : kModes) {
    for (const std::string& sql : {join, del}) {
      Result<QueryResult> r = Run(sql, m);
      ASSERT_TRUE(r.ok()) << sql << " in " << ModeName(m) << ": " << r.status().ToString();
      EXPECT_TRUE(r->rows.empty()) << sql << " in " << ModeName(m);
    }
  }
  EXPECT_EQ(BigRows(), before);
}

// VALUES expressions are bound, against no columns, before they run: a bad
// one fails with the error a SELECT list gives, and writes nothing.
TEST_F(StatementRobustnessTest, BadValuesExpressionFailsAsInASelectList) {
  const std::vector<std::string> before = BigRows();
  Result<QueryResult> r = db_.Execute("INSERT INTO big VALUES (a)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), "BindError: column 'a' not found");
  r = db_.Execute("INSERT INTO big VALUES (1 + 'x')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), "TypeError: arithmetic needs numeric operands in (1 + 'x')");
  EXPECT_EQ(r.status().ToString(), db_.Execute("SELECT 1 + 'x' FROM big").status().ToString());
  EXPECT_EQ(BigRows(), before);
}

// Constant folding binds a constant subtree before it evaluates it, so a
// type error in one is the binder's TypeError.
TEST_F(StatementRobustnessTest, FoldingANonBooleanNotFailsCleanly) {
  for (const char* sql : {"SELECT NOT 1", "SELECT a FROM big WHERE NOT 1"}) {
    Result<QueryResult> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().ToString(), "TypeError: logical operand 1 is not boolean") << sql;
  }
}

TEST_F(StatementRobustnessTest, MinDividedByMinusOneRaises) {
  // a - 1 is INT64_MIN, whose quotient by -1 is not representable (a raw
  // division traps with SIGFPE).
  ExpectOverflowEverywhere("SELECT (a - 1) / -1 FROM small", "((small.a - 1) / -1)");
}

TEST_F(StatementRobustnessTest, AbsOfMinRaises) {
  ExpectOverflowEverywhere("SELECT abs(a - 1) FROM small", "abs((small.a - 1))");
}

TEST_F(StatementRobustnessTest, MinModuloMinusOneIsZero) {
  for (const Mode& m : kModes) {
    Result<QueryResult> r = Run("SELECT (a - 1) % -1, (a - 1) / 1 FROM small", m);
    ASSERT_TRUE(r.ok()) << ModeName(m) << ": " << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << ModeName(m);
    EXPECT_EQ(r->rows[0].At(0).AsInt(), 0) << ModeName(m);
    EXPECT_EQ(r->rows[0].At(1).AsInt(), INT64_MIN) << ModeName(m);
  }
}

TEST_F(StatementRobustnessTest, InRangeArithmeticIsUnchanged) {
  for (const Mode& m : kModes) {
    Result<QueryResult> r = Run("SELECT a + 7, a - 7, a * 1, a / -2, a % 7 FROM big", m);
    ASSERT_TRUE(r.ok()) << ModeName(m) << ": " << r.status().ToString();
    const Tuple& row = r->rows.at(0);
    EXPECT_EQ(row.At(0).AsInt(), INT64_MAX) << ModeName(m);
    EXPECT_EQ(row.At(1).AsInt(), 9223372036854775793) << ModeName(m);
    EXPECT_EQ(row.At(2).AsInt(), 9223372036854775800) << ModeName(m);
    EXPECT_EQ(row.At(3).AsInt(), -4611686018427387900) << ModeName(m);
    EXPECT_EQ(row.At(4).AsInt(), 9223372036854775800 % 7) << ModeName(m);
  }
}

/// A statement far deeper than the limit fails with the parser's depth error.
void ExpectTooDeep(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Execute(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError) << r.status().ToString();
  EXPECT_NE(r.status().message().find("expression nests deeper than"), std::string::npos)
      << r.status().ToString();
}

TEST_F(StatementRobustnessTest, DeeplyNestedParenthesesFailCleanly) {
  const int n = 10000;
  ExpectTooDeep(&db_, "SELECT " + std::string(n, '(') + "a" + std::string(n, ')') + " FROM big");
}

TEST_F(StatementRobustnessTest, LongOperatorChainFailsCleanly) {
  // No parentheses at all: the chain builds a 100k-deep left-leaning tree.
  std::string chain = "a";
  for (int i = 1; i < 100000; ++i) chain += "+a";
  ExpectTooDeep(&db_, "SELECT " + chain + " FROM big");
}

TEST_F(StatementRobustnessTest, StackedNotsFailCleanly) {
  std::string nots;
  for (int i = 0; i < 100000; ++i) nots += "NOT ";
  ExpectTooDeep(&db_, "SELECT " + nots + "true FROM big");
}

TEST_F(StatementRobustnessTest, ExpressionsAtTheLimitStillRun) {
  // kMaxExpressionDepth levels in each shape parse, bind, fold and run.
  const int n = kMaxExpressionDepth - 1;
  std::string chain = "a";
  for (int i = 1; i < kMaxExpressionDepth; ++i) chain += "+0";
  std::string nots;
  for (int i = 0; i < n; ++i) nots += "NOT ";
  for (const Mode& m : {kModes[0], kModes[2]}) {
    Result<QueryResult> parens =
        Run("SELECT " + std::string(n, '(') + "a" + std::string(n, ')') + " FROM small", m);
    ASSERT_TRUE(parens.ok()) << ModeName(m) << ": " << parens.status().ToString();
    Result<QueryResult> chained = Run("SELECT " + chain + " FROM small", m);
    ASSERT_TRUE(chained.ok()) << ModeName(m) << ": " << chained.status().ToString();
    Result<QueryResult> negated = Run("SELECT " + nots + "true FROM small", m);
    ASSERT_TRUE(negated.ok()) << ModeName(m) << ": " << negated.status().ToString();
    EXPECT_EQ(negated->rows.at(0).At(0).AsBool(), n % 2 == 0) << ModeName(m);
  }
}

TEST_F(StatementRobustnessTest, FailedInsertWritesNoRow) {
  Sql(&db_, "CREATE TABLE t (a INT, b VARCHAR)");
  Sql(&db_, "CREATE INDEX t_a ON t (a)");
  Sql(&db_, "INSERT INTO t VALUES (0, 'w')");
  const std::vector<std::string> rows_before = {"(0, 'w')"};
  const std::vector<std::pair<std::string, Rid>> index_before = tu::IndexEntries(&db_, "t_a");
  ASSERT_EQ(index_before.size(), 1u);

  // The third row's value fails its cast after two good rows.
  Result<QueryResult> r = db_.Execute("INSERT INTO t VALUES (1,'x'),(2,'y'),('oops','z')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << r.status().ToString();

  std::vector<std::string> rows_after;
  for (const Tuple& row : Sql(&db_, "SELECT a, b FROM t").rows) {
    rows_after.push_back(row.ToString());
  }
  EXPECT_EQ(rows_after, rows_before);
  EXPECT_EQ(tu::IndexEntries(&db_, "t_a"), index_before);
  tu::ExpectNoPinnedFrames(&db_, "failed INSERT");
}

// A row that the heap or an index cannot hold fails its statement before
// the first write, as a bad value does: the index key or the record is
// checked for every row first.
TEST_F(StatementRobustnessTest, InsertWithOversizeIndexKeyWritesNoRow) {
  Sql(&db_, "CREATE TABLE t (a INT, s TEXT)");
  Sql(&db_, "CREATE INDEX ts ON t (s)");
  Sql(&db_, "INSERT INTO t VALUES (0, 'w')");
  const std::vector<std::pair<std::string, Rid>> index_before = tu::IndexEntries(&db_, "ts");
  Result<QueryResult> r = db_.Execute("INSERT INTO t VALUES (1, 'a'), (2, '" +
                                      std::string(2000, 'k') + "'), (3, 'c')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status().ToString();
  EXPECT_EQ(r.status().message(), "index key exceeds 1024 bytes");
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT count(*) FROM t")), 1);
  EXPECT_EQ(tu::IndexEntries(&db_, "ts"), index_before);
  tu::ExpectNoPinnedFrames(&db_, "INSERT with an oversize index key");
}

TEST_F(StatementRobustnessTest, InsertWithOversizeRecordWritesNoRow) {
  Sql(&db_, "CREATE TABLE v (a INT, s TEXT)");
  Sql(&db_, "CREATE INDEX v_a ON v (a)");
  Result<QueryResult> r =
      db_.Execute("INSERT INTO v VALUES (1, 'a'), (2, '" + std::string(5000, 'r') + "')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status().ToString();
  EXPECT_EQ(r.status().message(), "record of 5014 bytes exceeds page capacity");
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT count(*) FROM v")), 0);
  EXPECT_TRUE(tu::IndexEntries(&db_, "v_a").empty());
  tu::ExpectNoPinnedFrames(&db_, "INSERT with an oversize record");
}

TEST_F(StatementRobustnessTest, UpdateWithOversizeRecordWritesNoRow) {
  Sql(&db_, "CREATE TABLE u (a INT, s TEXT)");
  Sql(&db_, "CREATE INDEX u_a ON u (a)");
  Sql(&db_, "INSERT INTO u VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  const std::vector<std::pair<std::string, Rid>> index_before = tu::IndexEntries(&db_, "u_a");
  for (const Mode& m : kModes) {
    Result<QueryResult> r =
        Run("UPDATE u SET s = '" + std::string(5000, 'r') + "' WHERE a >= 2", m);
    ASSERT_FALSE(r.ok()) << ModeName(m);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status().ToString();
    std::vector<std::string> rows;
    for (const Tuple& row : Sql(&db_, "SELECT a, s FROM u").rows) rows.push_back(row.ToString());
    EXPECT_EQ(rows, (std::vector<std::string>{"(1, 'a')", "(2, 'b')", "(3, 'c')"}))
        << ModeName(m);
    EXPECT_EQ(tu::IndexEntries(&db_, "u_a"), index_before) << ModeName(m);
    tu::ExpectNoPinnedFrames(&db_, "UPDATE to an oversize record");
  }
}

// A DOUBLE outside int64's range (or NaN) has no INT value: the cast fails
// instead of storing whatever the conversion produces. Both statements
// evaluate every row before writing any, so they change nothing.
TEST_F(StatementRobustnessTest, OutOfRangeDoubleToIntWritesNothing) {
  Sql(&db_, "CREATE TABLE ti (a INT)");
  Sql(&db_, "INSERT INTO ti VALUES (7)");
  for (const char* sql : {"INSERT INTO ti VALUES (1e30)", "INSERT INTO ti VALUES (-1e30)",
                          "INSERT INTO ti VALUES (9.3e18)", "INSERT INTO ti VALUES (1), (1e30)",
                          "UPDATE ti SET a = 1e19"}) {
    Result<QueryResult> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << sql << ": " << r.status().ToString();
    QueryResult rows = Sql(&db_, "SELECT a FROM ti");
    ASSERT_EQ(rows.rows.size(), 1u) << sql;
    EXPECT_EQ(rows.rows[0].At(0).AsInt(), 7) << sql;
  }
  // In range, the cast truncates toward zero.
  Sql(&db_, "INSERT INTO ti VALUES (9.2e18), (-2.9)");
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT count(*) FROM ti WHERE a = 9200000000000000000")), 1);
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT count(*) FROM ti WHERE a = -2")), 1);
}

// Relation sets are 64-bit masks: a 65th relation would alias relation 0.
// Such a join block fails before planning under every strategy, and the
// session keeps working.
TEST_F(StatementRobustnessTest, SixtyFiveRelationsFailFast) {
  Sql(&db_, "CREATE TABLE t (a INT, b INT)");
  Sql(&db_, "INSERT INTO t VALUES (1, 1), (2, 2)");
  std::string from = "t t0", where;
  for (int i = 1; i < 65; ++i) {
    from += ", t t" + std::to_string(i);
    if (!where.empty()) where += " AND ";
    where += "t" + std::to_string(i - 1) + ".a = t" + std::to_string(i) + ".b";
  }
  const std::string chain = "SELECT count(*) FROM " + from + " WHERE " + where;
  for (JoinEnumAlgorithm algorithm :
       {JoinEnumAlgorithm::kDpBushy, JoinEnumAlgorithm::kDpLeftDeep, JoinEnumAlgorithm::kGreedy,
        JoinEnumAlgorithm::kExhaustive, JoinEnumAlgorithm::kRandom, JoinEnumAlgorithm::kWorst,
        JoinEnumAlgorithm::kSimpliSquared, JoinEnumAlgorithm::kDpCcp}) {
    db_.options().optimizer.join.algorithm = algorithm;
    Result<QueryResult> r = db_.Execute(chain);
    ASSERT_FALSE(r.ok()) << JoinEnumAlgorithmToString(algorithm);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status().ToString();
    EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT count(*) FROM t t0, t t1 WHERE t0.a = t1.b")), 2)
        << JoinEnumAlgorithmToString(algorithm);
  }
}

}  // namespace
}  // namespace relopt
