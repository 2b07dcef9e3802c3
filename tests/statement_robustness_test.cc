// Statements that would wrap, trap or exhaust the stack must fail with a
// Status, identically in every execution mode: checked int64 arithmetic in
// the batch kernels at every batch size, and the parser's expression-depth
// limit. A statement that fails on a bad value must write nothing.
#include <gtest/gtest.h>

#include <string>

#include "parser/parser.h"
#include "storage/btree.h"
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

/// Every (key, rid) entry of `index`, in key order.
std::vector<std::pair<std::string, Rid>> IndexEntries(Database* db, const std::string& index) {
  std::vector<std::pair<std::string, Rid>> out;
  Result<IndexInfo*> info = db->catalog()->GetIndex(index);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  if (!info.ok()) return out;
  Result<BTree::Iterator> it =
      BTree::Iterator::Seek((*info)->tree.get(), std::nullopt, true, std::nullopt, true);
  EXPECT_TRUE(it.ok()) << it.status().ToString();
  std::string key;
  Rid rid;
  while (it.ok()) {
    Result<bool> has = it->Next(&key, &rid);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok() || !*has) break;
    out.emplace_back(key, rid);
  }
  return out;
}

TEST_F(StatementRobustnessTest, FailedInsertWritesNoRow) {
  Sql(&db_, "CREATE TABLE t (a INT, b VARCHAR)");
  Sql(&db_, "CREATE INDEX t_a ON t (a)");
  Sql(&db_, "INSERT INTO t VALUES (0, 'w')");
  const std::vector<std::string> rows_before = {"(0, 'w')"};
  const std::vector<std::pair<std::string, Rid>> index_before = IndexEntries(&db_, "t_a");
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
  EXPECT_EQ(IndexEntries(&db_, "t_a"), index_before);
  tu::ExpectNoPinnedFrames(&db_, "failed INSERT");
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
