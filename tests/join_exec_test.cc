// Join executor tests: each method directly, plus cross-method agreement.
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/block_nested_loop_join.h"
#include "exec/hash_join.h"
#include "exec/index_nested_loop_join.h"
#include "exec/nested_loop_join.h"
#include "exec/seq_scan.h"
#include "exec/sort_merge_join.h"
#include "exec/values_exec.h"
#include "test_util.h"

namespace relopt {
namespace {

using tu::Drain;

class JoinExecTest : public ::testing::Test {
 protected:
  JoinExecTest() : pool_(&disk_, 64), catalog_(&pool_), ctx_(&catalog_, &pool_) {
    Schema r;
    r.AddColumn(Column("id", TypeId::kInt64, "r"));
    r.AddColumn(Column("k", TypeId::kInt64, "r"));
    r_ = *catalog_.CreateTable("r", r);
    Schema s;
    s.AddColumn(Column("k", TypeId::kInt64, "s"));
    s.AddColumn(Column("tag", TypeId::kString, "s"));
    s_ = *catalog_.CreateTable("s", s);

    // r: 30 rows, k = id % 5.  s: keys 0..3, duplicated twice each, plus a
    // NULL-keyed row and a never-matching key 99.
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(catalog_.InsertTuple(r_, Tuple({Value::Int(i), Value::Int(i % 5)})).ok());
    }
    for (int k = 0; k < 4; ++k) {
      for (int copy = 0; copy < 2; ++copy) {
        EXPECT_TRUE(catalog_
                        .InsertTuple(s_, Tuple({Value::Int(k),
                                                Value::String("s" + std::to_string(k) + "_" +
                                                              std::to_string(copy))}))
                        .ok());
      }
    }
    EXPECT_TRUE(
        catalog_.InsertTuple(s_, Tuple({Value::Null(TypeId::kInt64), Value::String("null")}))
            .ok());
    EXPECT_TRUE(catalog_.InsertTuple(s_, Tuple({Value::Int(99), Value::String("lonely")})).ok());
  }

  ExecutorPtr ScanR() { return std::make_unique<SeqScanExecutor>(&ctx_, r_->schema(), r_); }
  ExecutorPtr ScanS() { return std::make_unique<SeqScanExecutor>(&ctx_, s_->schema(), s_); }

  ExprPtr JoinPred() {
    ExprPtr pred = MakeComparison(CompareOp::kEq, MakeColumnRef("r", "k"), MakeColumnRef("s", "k"));
    Schema concat = Schema::Concat(r_->schema(), s_->schema());
    EXPECT_TRUE(pred->Bind(concat).ok());
    return pred;
  }

  /// Sorted rendering for order-insensitive comparison.
  static std::vector<std::string> Canon(const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    for (const Tuple& t : rows) out.push_back(t.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }

  // Expected matches: r keys 0..4 each 6 rows; s keys 0..3 each 2 rows.
  // Matching r rows: k in {0,1,2,3} -> 24 rows, each matching 2 s rows = 48.
  static constexpr size_t kExpectedMatches = 48;

  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  ExecContext ctx_;
  TableInfo* r_;
  TableInfo* s_;
};

TEST_F(JoinExecTest, NestedLoopJoin) {
  ExprPtr pred = JoinPred();
  NestedLoopJoinExecutor join(&ctx_, ScanR(), ScanS(), pred.get());
  std::vector<Tuple> rows = Drain(&join);
  EXPECT_EQ(rows.size(), kExpectedMatches);
  EXPECT_EQ(rows[0].NumValues(), 4u);
}

TEST_F(JoinExecTest, NestedLoopCrossProduct) {
  NestedLoopJoinExecutor join(&ctx_, ScanR(), ScanS(), nullptr);
  EXPECT_EQ(Drain(&join).size(), 30u * 10u);
}

TEST_F(JoinExecTest, BlockNestedLoopJoinMatchesNlj) {
  ExprPtr pred = JoinPred();
  NestedLoopJoinExecutor nlj(&ctx_, ScanR(), ScanS(), pred.get());
  std::vector<Tuple> expected = Drain(&nlj);

  BlockNestedLoopJoinExecutor bnlj(&ctx_, ScanR(), ScanS(), pred.get(), /*block_pages=*/1);
  std::vector<Tuple> got = Drain(&bnlj);
  EXPECT_EQ(Canon(got), Canon(expected));
}

TEST_F(JoinExecTest, BlockNestedLoopTinyBlockStillCorrect) {
  ExprPtr pred = JoinPred();
  // Force many blocks by using a tiny block size relative to 30 rows.
  BlockNestedLoopJoinExecutor bnlj(&ctx_, ScanR(), ScanS(), pred.get(), 1);
  EXPECT_EQ(Drain(&bnlj).size(), kExpectedMatches);
}

TEST_F(JoinExecTest, HashJoinInMemory) {
  HashJoinExecutor join(&ctx_, ScanR(), ScanS(), {1}, {0}, nullptr,
                        /*output_probe_first=*/false);
  std::vector<Tuple> rows = Drain(&join);
  EXPECT_EQ(rows.size(), kExpectedMatches);
  // Output = (build=r, probe=s): 4 columns in r,s order.
  EXPECT_EQ(rows[0].NumValues(), 4u);
}

TEST_F(JoinExecTest, HashJoinSwappedSidesKeepsSchemaOrder) {
  // Build on s, probe with r, but emit (r, s).
  HashJoinExecutor join(&ctx_, ScanS(), ScanR(), {0}, {1}, nullptr,
                        /*output_probe_first=*/true);
  std::vector<Tuple> rows = Drain(&join);
  EXPECT_EQ(rows.size(), kExpectedMatches);
  // First column should be r.id (an int below 30), third s.k.
  for (const Tuple& t : rows) {
    EXPECT_LT(t.At(0).AsInt(), 30);
    EXPECT_EQ(t.At(1).AsInt(), t.At(2).AsInt());  // r.k == s.k
  }
}

TEST_F(JoinExecTest, HashJoinNullKeysNeverMatch) {
  HashJoinExecutor join(&ctx_, ScanS(), ScanS(), {0}, {0}, nullptr, false);
  // s has 8 non-null keyed rows in 4 groups of 2 -> 4*4=16 pairs; the NULL
  // row and key 99 row match... 99 matches itself (1 pair). NULL matches
  // nothing.
  EXPECT_EQ(Drain(&join).size(), 16u + 1u);
}

TEST_F(JoinExecTest, GraceHashJoinSpillsAndMatches) {
  // A pool this small forces the Grace path (operator memory = 1 page).
  DiskManager disk;
  BufferPool pool(&disk, 9);
  Catalog catalog(&pool);
  ExecContext ctx(&catalog, &pool);

  Schema big;
  big.AddColumn(Column("k", TypeId::kInt64, "big"));
  big.AddColumn(Column("pad", TypeId::kString, "big"));
  TableInfo* big_table = *catalog.CreateTable("big", big);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(catalog
                    .InsertTuple(big_table, Tuple({Value::Int(i % 50),
                                                   Value::String(std::string(100, 'x'))}))
                    .ok());
  }
  auto scan1 = std::make_unique<SeqScanExecutor>(&ctx, big_table->schema(), big_table);
  auto scan2 = std::make_unique<SeqScanExecutor>(&ctx, big_table->schema(), big_table);
  HashJoinExecutor join(&ctx, std::move(scan1), std::move(scan2), {0}, {0}, nullptr, false);
  // 50 keys x 10 rows each side -> 50 * 10 * 10.
  EXPECT_EQ(Drain(&join).size(), 5000u);
  // The spill really happened: scratch partition writes occurred.
  EXPECT_GT(disk.stats().page_writes, 0u);
  // The join's own spill I/O is pinned: the partition hash, the byte budget
  // and the partition count decide it, and page I/O is the cost model's unit.
  EXPECT_EQ(join.stats().page_writes, 561u);
  EXPECT_EQ(join.stats().page_reads, 570u);
}

TEST_F(JoinExecTest, SortMergeJoinOnSortedInputs) {
  // Sort both sides via Values (already sorted by key here).
  std::vector<Tuple> left_rows, right_rows;
  for (int i = 0; i < 10; ++i) left_rows.push_back(Tuple({Value::Int(i / 2)}));   // 0,0,1,1,...
  for (int i = 0; i < 5; ++i) right_rows.push_back(Tuple({Value::Int(i)}));
  Schema one_col;
  one_col.AddColumn(Column("k", TypeId::kInt64, "l"));
  Schema one_col_r;
  one_col_r.AddColumn(Column("k", TypeId::kInt64, "rr"));
  auto left = std::make_unique<ValuesExecutor>(&ctx_, one_col, &left_rows);
  auto right = std::make_unique<ValuesExecutor>(&ctx_, one_col_r, &right_rows);
  SortMergeJoinExecutor join(&ctx_, std::move(left), std::move(right), {0}, {0}, nullptr);
  std::vector<Tuple> rows = Drain(&join);
  EXPECT_EQ(rows.size(), 10u);  // every left row matches exactly one right
  for (const Tuple& t : rows) EXPECT_EQ(t.At(0).AsInt(), t.At(1).AsInt());
}

TEST_F(JoinExecTest, SortMergeJoinDuplicateGroupsCrossProduct) {
  std::vector<Tuple> left_rows = {Tuple({Value::Int(1)}), Tuple({Value::Int(1)}),
                                  Tuple({Value::Int(2)})};
  std::vector<Tuple> right_rows = {Tuple({Value::Int(1)}), Tuple({Value::Int(1)}),
                                   Tuple({Value::Int(1)}), Tuple({Value::Int(3)})};
  Schema l;
  l.AddColumn(Column("k", TypeId::kInt64, "l"));
  Schema r;
  r.AddColumn(Column("k", TypeId::kInt64, "rr"));
  auto left = std::make_unique<ValuesExecutor>(&ctx_, l, &left_rows);
  auto right = std::make_unique<ValuesExecutor>(&ctx_, r, &right_rows);
  SortMergeJoinExecutor join(&ctx_, std::move(left), std::move(right), {0}, {0}, nullptr);
  EXPECT_EQ(Drain(&join).size(), 6u);  // 2 left x 3 right for key 1
}

TEST_F(JoinExecTest, SortMergeJoinSkipsNullKeys) {
  std::vector<Tuple> left_rows = {Tuple({Value::Null(TypeId::kInt64)}), Tuple({Value::Int(1)})};
  std::vector<Tuple> right_rows = {Tuple({Value::Null(TypeId::kInt64)}), Tuple({Value::Int(1)})};
  Schema l;
  l.AddColumn(Column("k", TypeId::kInt64, "l"));
  Schema r;
  r.AddColumn(Column("k", TypeId::kInt64, "rr"));
  auto left = std::make_unique<ValuesExecutor>(&ctx_, l, &left_rows);
  auto right = std::make_unique<ValuesExecutor>(&ctx_, r, &right_rows);
  SortMergeJoinExecutor join(&ctx_, std::move(left), std::move(right), {0}, {0}, nullptr);
  EXPECT_EQ(Drain(&join).size(), 1u);
}

TEST_F(JoinExecTest, IndexNestedLoopJoin) {
  IndexInfo* index = *catalog_.CreateIndex("idx_s_k", "s", {"k"}, false);
  // Probe with r.k (column 1).
  IndexNestedLoopJoinExecutor join(&ctx_, ScanR(), s_, index, s_->schema(), {1}, nullptr);
  std::vector<Tuple> rows = Drain(&join);
  EXPECT_EQ(rows.size(), kExpectedMatches);
  for (const Tuple& t : rows) {
    EXPECT_EQ(t.At(1).AsInt(), t.At(2).AsInt());  // r.k == s.k
  }
}

TEST_F(JoinExecTest, AllMethodsAgree) {
  ExprPtr pred = JoinPred();
  NestedLoopJoinExecutor nlj(&ctx_, ScanR(), ScanS(), pred.get());
  std::vector<std::string> expected = Canon(Drain(&nlj));

  BlockNestedLoopJoinExecutor bnlj(&ctx_, ScanR(), ScanS(), pred.get(), 2);
  EXPECT_EQ(Canon(Drain(&bnlj)), expected);

  HashJoinExecutor hash(&ctx_, ScanR(), ScanS(), {1}, {0}, nullptr, false);
  EXPECT_EQ(Canon(Drain(&hash)), expected);

  IndexInfo* index = *catalog_.CreateIndex("idx_s_k2", "s", {"k"}, false);
  IndexNestedLoopJoinExecutor inlj(&ctx_, ScanR(), s_, index, s_->schema(), {1}, nullptr);
  EXPECT_EQ(Canon(Drain(&inlj)), expected);
}

TEST_F(JoinExecTest, EmptyInputs) {
  Schema empty_schema;
  empty_schema.AddColumn(Column("k", TypeId::kInt64, "e"));
  std::vector<Tuple> no_rows;
  {
    auto left = std::make_unique<ValuesExecutor>(&ctx_, empty_schema, &no_rows);
    NestedLoopJoinExecutor join(&ctx_, std::move(left), ScanS(), nullptr);
    EXPECT_TRUE(Drain(&join).empty());
  }
  {
    auto right = std::make_unique<ValuesExecutor>(&ctx_, empty_schema, &no_rows);
    HashJoinExecutor join(&ctx_, std::move(right), ScanR(), {0}, {1}, nullptr, true);
    EXPECT_TRUE(Drain(&join).empty());
  }
}

}  // namespace
}  // namespace relopt
