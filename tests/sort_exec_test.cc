// External sort executor: in-memory path, spill path, multi-pass merges,
// descending keys, stability of results.
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/external_sort.h"
#include "exec/seq_scan.h"
#include "exec/values_exec.h"
#include "test_util.h"
#include "util/rng.h"

namespace relopt {
namespace {

using tu::Drain;

class SortExecTest : public ::testing::Test {
 protected:
  SortExecTest() : pool_(&disk_, 16), catalog_(&pool_), ctx_(&catalog_, &pool_) {}

  /// Builds a one-column int64 Values input from `data` (schema alias "v").
  ExecutorPtr ValuesOf(const std::vector<int64_t>& data) {
    rows_.clear();
    for (int64_t v : data) rows_.push_back(Tuple({Value::Int(v)}));
    Schema schema;
    schema.AddColumn(Column("x", TypeId::kInt64, "v"));
    return std::make_unique<ValuesExecutor>(&ctx_, schema, &rows_);
  }

  std::vector<int64_t> SortInts(const std::vector<int64_t>& data, bool desc) {
    ExecutorPtr input = ValuesOf(data);
    key_expr_ = MakeColumnRef("v", "x");
    EXPECT_TRUE(key_expr_->Bind(input->schema()).ok());
    std::vector<SortKeySpec> keys = {{key_expr_.get(), desc}};
    last_sort_ = std::make_unique<ExternalSortExecutor>(&ctx_, std::move(input), keys);
    std::vector<int64_t> out;
    for (const Tuple& t : Drain(last_sort_.get())) out.push_back(t.At(0).AsInt());
    return out;
  }

  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  ExecContext ctx_;
  std::vector<Tuple> rows_;
  ExprPtr key_expr_;
  std::unique_ptr<ExternalSortExecutor> last_sort_;
};

TEST_F(SortExecTest, SmallInputSortsInMemory) {
  std::vector<int64_t> out = SortInts({5, 3, 9, 1, 1, 7}, false);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 1, 3, 5, 7, 9}));
  EXPECT_EQ(last_sort_->num_spilled_runs(), 0u);
}

TEST_F(SortExecTest, DescendingSort) {
  std::vector<int64_t> out = SortInts({5, 3, 9, 1}, true);
  EXPECT_EQ(out, (std::vector<int64_t>{9, 5, 3, 1}));
}

TEST_F(SortExecTest, EmptyInput) {
  EXPECT_TRUE(SortInts({}, false).empty());
}

TEST_F(SortExecTest, LargeInputSpillsAndMerges) {
  Rng rng(4);
  std::vector<int64_t> data;
  for (int i = 0; i < 30000; ++i) data.push_back(rng.UniformInt(0, 1000000));
  std::vector<int64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<int64_t> out = SortInts(data, false);
  EXPECT_EQ(out, expected);
  EXPECT_GT(last_sort_->num_spilled_runs(), 1u);
  // Spill I/O really happened.
  EXPECT_GT(disk_.stats().page_writes, 0u);
}

TEST_F(SortExecTest, VeryLargeInputNeedsMergePasses) {
  // Tiny pool -> operator memory 8 pages, fan-in 7; enough data to force
  // more runs than the fan-in.
  Rng rng(5);
  std::vector<int64_t> data;
  for (int i = 0; i < 120000; ++i) data.push_back(rng.UniformInt(0, 1000000));
  std::vector<int64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<int64_t> out = SortInts(data, false);
  ASSERT_EQ(out.size(), expected.size());
  EXPECT_EQ(out, expected);
  EXPECT_GT(last_sort_->num_spilled_runs(), 7u);
  EXPECT_GE(last_sort_->merge_passes(), 1u);
}

TEST_F(SortExecTest, ReInitResorts) {
  std::vector<int64_t> out1 = SortInts({3, 1, 2}, false);
  std::vector<int64_t> out2;
  for (const Tuple& t : Drain(last_sort_.get())) out2.push_back(t.At(0).AsInt());
  EXPECT_EQ(out1, out2);
}

TEST_F(SortExecTest, MultiKeySortFromTable) {
  Schema schema;
  schema.AddColumn(Column("a", TypeId::kInt64, "t"));
  schema.AddColumn(Column("b", TypeId::kString, "t"));
  TableInfo* table = *catalog_.CreateTable("t", schema);
  ASSERT_TRUE(catalog_.InsertTuple(table, Tuple({Value::Int(2), Value::String("x")})).ok());
  ASSERT_TRUE(catalog_.InsertTuple(table, Tuple({Value::Int(1), Value::String("z")})).ok());
  ASSERT_TRUE(catalog_.InsertTuple(table, Tuple({Value::Int(1), Value::String("a")})).ok());
  auto scan = std::make_unique<SeqScanExecutor>(&ctx_, table->schema(), table);
  ExprPtr ka = MakeColumnRef("t", "a");
  ExprPtr kb = MakeColumnRef("t", "b");
  ASSERT_TRUE(ka->Bind(table->schema()).ok());
  ASSERT_TRUE(kb->Bind(table->schema()).ok());
  // a ASC, b DESC.
  std::vector<SortKeySpec> keys = {{ka.get(), false}, {kb.get(), true}};
  ExternalSortExecutor sort(&ctx_, std::move(scan), keys);
  std::vector<std::string> got;
  for (const Tuple& t : Drain(&sort)) {
    got.push_back(std::to_string(t.At(0).AsInt()) + t.At(1).AsString());
  }
  EXPECT_EQ(got, (std::vector<std::string>{"1z", "1a", "2x"}));
}

TEST_F(SortExecTest, NullsSortFirst) {
  rows_.clear();
  rows_.push_back(Tuple({Value::Int(5)}));
  rows_.push_back(Tuple({Value::Null(TypeId::kInt64)}));
  rows_.push_back(Tuple({Value::Int(1)}));
  Schema schema;
  schema.AddColumn(Column("x", TypeId::kInt64, "v"));
  auto input = std::make_unique<ValuesExecutor>(&ctx_, schema, &rows_);
  key_expr_ = MakeColumnRef("v", "x");
  ASSERT_TRUE(key_expr_->Bind(input->schema()).ok());
  std::vector<SortKeySpec> keys = {{key_expr_.get(), false}};
  ExternalSortExecutor sort(&ctx_, std::move(input), keys);
  std::vector<Tuple> rows = Drain(&sort);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].At(0).is_null());
  EXPECT_EQ(rows[1].At(0).AsInt(), 1);
}

// A merge join drains two spilled sorts at once, so both final merges hold
// a cursor per run. The fan-in counts one buffer page per run, so a run
// cursor must pin no page between records: with these rows the two final
// merges read more runs than this 32-page pool (24 pages of operator
// memory, fan-in 23) has frames.
TEST_F(SortExecTest, MergeJoinOverTwoSpilledSortsFitsA32PagePool) {
  SessionOptions options;
  options.buffer_pool_pages = 32;
  Database db(options);
  tu::Sql(&db, "CREATE TABLE l (k INT, v INT, pad TEXT)");
  tu::Sql(&db, "CREATE TABLE r (k INT, w INT, pad TEXT)");
  TableInfo* l = *db.catalog()->GetTable("l");
  TableInfo* r = *db.catalog()->GetTable("r");
  constexpr int64_t kRows = 20000;
  const Value pad = Value::String(std::string(30, 'p'));
  for (int64_t i = 0; i < kRows; ++i) {
    // Two permutations of 0..kRows-1, so each side needs its sort.
    const Tuple lrow({Value::Int(i * 7919 % kRows), Value::Int(i), pad});
    const Tuple rrow({Value::Int(i * 104729 % kRows), Value::Int(i), pad});
    ASSERT_TRUE(db.catalog()->InsertTuple(l, lrow).ok());
    ASSERT_TRUE(db.catalog()->InsertTuple(r, rrow).ok());
  }
  tu::Sql(&db, "ANALYZE");
  JoinEnumOptions& join = db.options().optimizer.join;
  join.enable_hash = join.enable_nlj = join.enable_bnlj = join.enable_inlj = false;
  QueryResult result = tu::CheckedSql(&db, "SELECT count(*) FROM l, r WHERE l.k = r.k");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].At(0).AsInt(), kRows);
  const OperatorProfile* merge = &db.last_profile().root;
  while (merge->op != "SortMergeJoin" && !merge->children.empty()) merge = &merge->children[0];
  ASSERT_EQ(merge->op, "SortMergeJoin") << db.last_profile().ToText();
  for (const OperatorProfile& side : merge->children) {
    EXPECT_EQ(side.op, "Sort");
    EXPECT_GT(side.stats.page_writes, 0u) << "the sort did not spill: " << side.describe;
  }
}

}  // namespace
}  // namespace relopt
