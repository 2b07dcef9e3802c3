// Aggregate executor SQL semantics (via the Database facade for brevity),
// plus the GroupTable both aggregation executors keep their groups in.
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/group_table.h"
#include "test_util.h"
#include "types/key_codec.h"

namespace relopt {
namespace {

using tu::IntCell;
using tu::Sql;

class AggregateTest : public ::testing::Test {
 protected:
  AggregateTest() {
    Sql(&db_, "CREATE TABLE t (g INT, v INT, d DOUBLE)");
    Sql(&db_,
        "INSERT INTO t VALUES (1, 10, 1.5), (1, 20, 2.5), (2, 30, 3.5), "
        "(2, NULL, NULL), (3, NULL, 4.5)");
  }

  Database db_;
};

TEST_F(AggregateTest, CountStarCountsAllRows) {
  EXPECT_EQ(IntCell(Sql(&db_, "SELECT count(*) FROM t")), 5);
}

TEST_F(AggregateTest, CountColumnIgnoresNulls) {
  EXPECT_EQ(IntCell(Sql(&db_, "SELECT count(v) FROM t")), 3);
}

TEST_F(AggregateTest, SumMinMax) {
  QueryResult r = Sql(&db_, "SELECT sum(v), min(v), max(v) FROM t");
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 60);
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 10);
  EXPECT_EQ(r.rows[0].At(2).AsInt(), 30);
}

TEST_F(AggregateTest, AvgIsDouble) {
  QueryResult r = Sql(&db_, "SELECT avg(v) FROM t");
  EXPECT_DOUBLE_EQ(r.rows[0].At(0).AsDouble(), 20.0);
}

TEST_F(AggregateTest, SumOfDoubles) {
  QueryResult r = Sql(&db_, "SELECT sum(d) FROM t");
  EXPECT_DOUBLE_EQ(r.rows[0].At(0).AsDouble(), 12.0);
}

TEST_F(AggregateTest, EmptyInputScalarAggregates) {
  Sql(&db_, "CREATE TABLE empty_t (x INT)");
  QueryResult r = Sql(&db_, "SELECT count(*), count(x), sum(x), min(x), avg(x) FROM empty_t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 0);
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 0);
  EXPECT_TRUE(r.rows[0].At(2).is_null());
  EXPECT_TRUE(r.rows[0].At(3).is_null());
  EXPECT_TRUE(r.rows[0].At(4).is_null());
}

TEST_F(AggregateTest, EmptyInputWithGroupByYieldsNoRows) {
  Sql(&db_, "CREATE TABLE empty_g (x INT)");
  QueryResult r = Sql(&db_, "SELECT x, count(*) FROM empty_g GROUP BY x");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(AggregateTest, GroupBy) {
  QueryResult r = Sql(&db_, "SELECT g, count(*), sum(v) FROM t GROUP BY g ORDER BY g");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 1);
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 2);
  EXPECT_EQ(r.rows[0].At(2).AsInt(), 30);
  EXPECT_EQ(r.rows[1].At(1).AsInt(), 2);
  EXPECT_EQ(r.rows[1].At(2).AsInt(), 30);
  // Group 3 has only a NULL v: sum is NULL.
  EXPECT_TRUE(r.rows[2].At(2).is_null());
}

TEST_F(AggregateTest, GroupByGroupsNullsTogether) {
  Sql(&db_, "CREATE TABLE n (g INT)");
  Sql(&db_, "INSERT INTO n VALUES (NULL), (NULL), (1)");
  QueryResult r = Sql(&db_, "SELECT g, count(*) FROM n GROUP BY g ORDER BY g");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[0].At(0).is_null());  // NULL group sorts first
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 2);
}

TEST_F(AggregateTest, HavingFiltersGroups) {
  QueryResult r = Sql(&db_, "SELECT g FROM t GROUP BY g HAVING count(v) = 2 ORDER BY g");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 1);
}

TEST_F(AggregateTest, AggregateOverExpression) {
  QueryResult r = Sql(&db_, "SELECT sum(v * 2) FROM t");
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 120);
}

TEST_F(AggregateTest, GroupByExpression) {
  QueryResult r = Sql(&db_, "SELECT g % 2, count(*) FROM t GROUP BY g % 2 ORDER BY g % 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].At(1).AsInt(), 2);  // g=2 (even): 2 rows
  EXPECT_EQ(r.rows[1].At(1).AsInt(), 3);  // g=1,3 (odd): 3 rows
}

TEST_F(AggregateTest, MinMaxOnStrings) {
  Sql(&db_, "CREATE TABLE s (x TEXT)");
  Sql(&db_, "INSERT INTO s VALUES ('banana'), ('apple'), ('cherry')");
  QueryResult r = Sql(&db_, "SELECT min(x), max(x) FROM s");
  EXPECT_EQ(r.rows[0].At(0).AsString(), "apple");
  EXPECT_EQ(r.rows[0].At(1).AsString(), "cherry");
}

TEST_F(AggregateTest, MixedIntDoubleSumPromotes) {
  Sql(&db_, "CREATE TABLE m (x DOUBLE)");
  Sql(&db_, "INSERT INTO m VALUES (1.5), (2)");
  QueryResult r = Sql(&db_, "SELECT sum(x) FROM m");
  EXPECT_DOUBLE_EQ(r.rows[0].At(0).AsDouble(), 3.5);
}

TEST_F(AggregateTest, IntegerSumNearMaxIsExact) {
  Sql(&db_, "CREATE TABLE big (x INT)");
  Sql(&db_, "INSERT INTO big VALUES (9223372036854775806), (1)");
  QueryResult r = Sql(&db_, "SELECT sum(x) FROM big");
  EXPECT_EQ(r.rows[0].At(0).AsInt(), INT64_MAX);
}

TEST_F(AggregateTest, IntegerSumOverflowErrorsInsteadOfWrapping) {
  Sql(&db_, "CREATE TABLE big (x INT)");
  Sql(&db_, "INSERT INTO big VALUES (9223372036854775807), (1)");
  Result<QueryResult> r = db_.Execute("SELECT sum(x) FROM big");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("overflow"), std::string::npos) << r.status().ToString();
}

TEST_F(AggregateTest, GroupedSumOverflowErrorsToo) {
  Sql(&db_, "CREATE TABLE big (g INT, x INT)");
  Sql(&db_, "INSERT INTO big VALUES (1, 9223372036854775807), (1, 1), (2, 5)");
  Result<QueryResult> r = db_.Execute("SELECT g, sum(x) FROM big GROUP BY g");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("overflow"), std::string::npos) << r.status().ToString();
}

TEST_F(AggregateTest, SumOverflowErrorIsIdenticalUnderParallelism) {
  Sql(&db_, "CREATE TABLE big (x INT)");
  Sql(&db_, "INSERT INTO big VALUES (9223372036854775807), (1)");
  Result<QueryResult> serial = db_.Execute("SELECT sum(x) FROM big");
  db_.set_parallelism(4);
  Result<QueryResult> parallel = db_.Execute("SELECT sum(x) FROM big");
  db_.set_parallelism(1);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
}

TEST_F(AggregateTest, AvgWidensToDoubleOnOverflow) {
  Sql(&db_, "CREATE TABLE big (x INT)");
  Sql(&db_, "INSERT INTO big VALUES (9223372036854775807), (9223372036854775807)");
  QueryResult r = Sql(&db_, "SELECT avg(x) FROM big");
  EXPECT_NEAR(r.rows[0].At(0).AsDouble(), 9.223372036854776e18, 1e13);
}

TEST_F(AggregateTest, NegativeSumOverflowErrorsToo) {
  Sql(&db_, "CREATE TABLE big (x INT)");
  Sql(&db_, "INSERT INTO big VALUES (-9223372036854775807), (-2)");
  Result<QueryResult> r = db_.Execute("SELECT sum(x) FROM big");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("overflow"), std::string::npos) << r.status().ToString();
}

TEST_F(AggregateTest, SerialOutputIsInAscendingKeyOrder) {
  // Without ORDER BY the serial executor still emits groups in ascending
  // encoded-key order (NULL first), at batch size 1 and 1024.
  Sql(&db_, "CREATE TABLE o (k INT, s TEXT)");
  Sql(&db_, "INSERT INTO o VALUES (30, 'b'), (NULL, 'a'), (-5, 'c'), (30, 'a'), (7, NULL)");
  for (size_t batch_size : {size_t{1}, TupleBatch::kDefaultCapacity}) {
    db_.set_batch_size(batch_size);
    QueryResult r = Sql(&db_, "SELECT k, count(*) FROM o GROUP BY k");
    ASSERT_EQ(r.rows.size(), 4u);
    EXPECT_TRUE(r.rows[0].At(0).is_null());
    EXPECT_EQ(r.rows[1].At(0).AsInt(), -5);
    EXPECT_EQ(r.rows[2].At(0).AsInt(), 7);
    EXPECT_EQ(r.rows[3].At(0).AsInt(), 30);
    EXPECT_EQ(r.rows[3].At(1).AsInt(), 2);
    QueryResult s = Sql(&db_, "SELECT s FROM o GROUP BY s");
    ASSERT_EQ(s.rows.size(), 4u);
    EXPECT_TRUE(s.rows[0].At(0).is_null());
    EXPECT_EQ(s.rows[1].At(0).AsString(), "a");
    EXPECT_EQ(s.rows[3].At(0).AsString(), "c");
  }
}

/// A table big enough (~15 four-page morsels) that every parallel worker
/// claims rows, so groups split across workers and their partial states go
/// through the parallel merge.
class ParallelAggregateMergeTest : public ::testing::Test {
 protected:
  ParallelAggregateMergeTest() {
    Sql(&db_, "CREATE TABLE big (id INT, g INT, s TEXT, v INT, d DOUBLE)");
    std::string insert = "INSERT INTO big VALUES ";
    for (int i = 0; i < 6000; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 50) + ", 'k" +
                std::to_string((i * 7) % 37) + "', " +
                (i % 11 == 0 ? std::string("NULL") : std::to_string((i * 131) % 997)) + ", " +
                std::to_string(i % 8) + ".25)";
    }
    Sql(&db_, insert);
    Sql(&db_, "ANALYZE");
  }

  static std::vector<std::string> Canon(const QueryResult& r) {
    std::vector<std::string> rows;
    for (const Tuple& t : r.rows) rows.push_back(t.ToString());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Database db_;
};

TEST_F(ParallelAggregateMergeTest, SplitGroupsMergeToTheSerialResult) {
  // Doubles are exact binary fractions, so merge order cannot change a sum.
  const char* const queries[] = {
      "SELECT g, count(*), count(v), sum(v), min(v), max(v), avg(v) FROM big GROUP BY g",
      "SELECT s, min(s), max(s), count(s), sum(d), avg(d) FROM big GROUP BY s",
      "SELECT g, sum(CASE WHEN v % 2 = 0 THEN v ELSE d END), max(d) FROM big GROUP BY g",
      "SELECT count(*), sum(v), min(s), max(d) FROM big",
      "SELECT DISTINCT s, g % 3 FROM big",
      "SELECT g, sum(v + 9223372036854000000) FROM big GROUP BY g",
  };
  for (const char* q : queries) {
    db_.set_parallelism(1);
    db_.set_batch_size(1);
    Result<QueryResult> ref = db_.Execute(q);
    for (size_t parallelism : {2, 4}) {
      for (size_t batch_size : {1, 7, 1024}) {
        db_.set_parallelism(parallelism);
        db_.set_batch_size(batch_size);
        Result<QueryResult> got = db_.Execute(q);
        const std::string mode = std::string(q) + " @ parallelism " +
                                 std::to_string(parallelism) + ", batch " +
                                 std::to_string(batch_size);
        ASSERT_EQ(ref.ok(), got.ok()) << mode;
        if (!ref.ok()) {
          EXPECT_EQ(ref.status().ToString(), got.status().ToString()) << mode;
          EXPECT_NE(ref.status().ToString().find("integer overflow in SUM"), std::string::npos);
          continue;
        }
        EXPECT_EQ(Canon(*ref), Canon(*got)) << mode;
      }
    }
  }
  db_.set_parallelism(1);
}

/// One input row for Fold: a group key, a SUM input and a MIN/MAX input.
struct FoldRow {
  Value key;
  Value num;
  Value any;
};

/// Folds `rows` into `table`, whose aggregates are COUNT(*), SUM(num),
/// MIN(any) and MAX(any) — the way GroupIngest does, NULL inputs skipped.
void Fold(const std::vector<FoldRow>& rows, GroupTable* table) {
  for (const FoldRow& row : rows) {
    std::string enc;
    EncodeKeyValue(row.key, &enc);
    uint32_t id =
        table->FindOrInsert(enc, GroupTable::Hash(enc), [&](size_t) { return row.key; });
    AggState* states = table->states(id);
    ++states[0].count;
    if (!row.num.is_null()) ASSERT_OK(table->Accumulate(AggFunc::kSum, row.num, &states[1]));
    if (row.any.is_null()) continue;
    ASSERT_OK(table->Accumulate(AggFunc::kMin, row.any, &states[2]));
    ASSERT_OK(table->Accumulate(AggFunc::kMax, row.any, &states[3]));
  }
}

std::vector<std::string> Rows(const GroupTable& table) {
  std::vector<std::string> out;
  for (uint32_t id : table.IdsInKeyOrder()) {
    Tuple t;
    EXPECT_OK(table.Emit(id, &t));
    out.push_back(t.ToString());
  }
  return out;
}

const std::vector<AggSpecExec> kFoldAggs = {
    {AggFunc::kCountStar, nullptr}, {AggFunc::kSum, nullptr}, {AggFunc::kMin, nullptr},
    {AggFunc::kMax, nullptr}};

TEST(GroupTableTest, GrowsPastItsInitialCapacity) {
  GroupTable table(1, kFoldAggs);
  std::vector<FoldRow> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int((i * 7919) % 2000), Value::Int(i), Value::Int(i)});
  }
  Fold(rows, &table);
  ASSERT_EQ(table.size(), 2000u);
  std::vector<uint32_t> order = table.IdsInKeyOrder();
  Tuple first, last;
  ASSERT_OK(table.Emit(order.front(), &first));
  ASSERT_OK(table.Emit(order.back(), &last));
  EXPECT_EQ(first.At(0).AsInt(), 0);
  EXPECT_EQ(last.At(0).AsInt(), 1999);
  EXPECT_EQ(first.At(1).AsInt(), 3);  // 5000 rows over 2000 keys: 0 gets 3
}

TEST(GroupTableTest, MergedPartialsEqualOneTable) {
  // String extremes, a NULL key, NULL inputs and an int->double SUM switch,
  // split across two partial tables at every point: merging must reproduce
  // the single-table result.
  const Value x = Value::String("x"), y = Value::String("y");
  std::vector<FoldRow> rows = {
      {x, Value::Int(1), Value::String("pear")},
      {y, Value::Int(4), Value::String("b")},
      {x, Value::Double(2.5), Value::String("apple")},
      {Value::Null(TypeId::kString), Value::Int(1), Value::String("q")},
      {x, Value::Null(), Value::Null()},
      {y, Value::Int(-3), Value::Null()},
      {x, Value::Int(3), Value::String("zoo")},
      {Value::String("z"), Value::Null(), Value::Null()},
  };
  GroupTable whole(1, kFoldAggs);
  Fold(rows, &whole);
  for (size_t split = 0; split <= rows.size(); ++split) {
    GroupTable a(1, kFoldAggs), b(1, kFoldAggs);
    Fold({rows.begin(), rows.begin() + split}, &a);
    Fold({rows.begin() + split, rows.end()}, &b);
    ASSERT_OK(a.MergeFrom(b));
    EXPECT_EQ(Rows(a), Rows(whole)) << "split at " << split;
  }
  std::vector<uint32_t> order = whole.IdsInKeyOrder();
  ASSERT_EQ(order.size(), 4u);
  Tuple null_group, group_x, group_z;
  ASSERT_OK(whole.Emit(order[0], &null_group));
  ASSERT_OK(whole.Emit(order[1], &group_x));
  ASSERT_OK(whole.Emit(order[3], &group_z));
  EXPECT_TRUE(null_group.At(0).is_null());
  EXPECT_EQ(group_x.At(1).AsInt(), 4);
  EXPECT_DOUBLE_EQ(group_x.At(2).AsDouble(), 6.5);
  EXPECT_EQ(group_x.At(3).AsString(), "apple");
  EXPECT_EQ(group_x.At(4).AsString(), "zoo");
  EXPECT_EQ(group_z.At(1).AsInt(), 1);
  EXPECT_TRUE(group_z.At(2).is_null());
  EXPECT_TRUE(group_z.At(3).is_null());
}

TEST(GroupTableTest, MergeChecksIntegerSumOverflow) {
  GroupTable a(1, kFoldAggs), b(1, kFoldAggs);
  Fold({{Value::Int(1), Value::Int(INT64_MAX), Value::Null()}}, &a);
  Fold({{Value::Int(1), Value::Int(1), Value::Null()}}, &b);
  Status st = a.MergeFrom(b);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(st.message(), "integer overflow in SUM aggregate");
}

}  // namespace
}  // namespace relopt
