// Direct executor tests: scans, filter, project, values, limit, index scan,
// and restarts of the one-worker scan, hash join and aggregate.
#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/executor_factory.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/limit.h"
#include "exec/project.h"
#include "exec/seq_scan.h"
#include "exec/values_exec.h"
#include "test_util.h"
#include "types/key_codec.h"

namespace relopt {
namespace {

using tu::Drain;
using tu::Sql;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : pool_(&disk_, 64), catalog_(&pool_), ctx_(&catalog_, &pool_) {
    Schema schema;
    schema.AddColumn(Column("id", TypeId::kInt64, "t"));
    schema.AddColumn(Column("v", TypeId::kInt64, "t"));
    table_ = *catalog_.CreateTable("t", schema);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(catalog_.InsertTuple(table_, Tuple({Value::Int(i), Value::Int(i % 10)})).ok());
    }
  }

  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  ExecContext ctx_;
  TableInfo* table_;
};

TEST_F(ExecutorTest, SeqScanReturnsAllRows) {
  SeqScanExecutor scan(&ctx_, table_->schema(), table_);
  std::vector<Tuple> rows = Drain(&scan);
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_EQ(scan.stats().rows_produced, 100u);
}

TEST_F(ExecutorTest, SeqScanRestartsOnReInit) {
  SeqScanExecutor scan(&ctx_, table_->schema(), table_);
  EXPECT_EQ(Drain(&scan).size(), 100u);
  EXPECT_EQ(Drain(&scan).size(), 100u);  // Init() again rewinds
}

// A one-worker operator owns its shared state and resets it in Init, as a
// nested-loop inner needs: draining it again must repeat the same rows, in
// the same order, with the same page fetches charged to every operator.
void ExpectRestartRepeats(Executor* root, const std::vector<const Executor*>& ops) {
  auto fetches = [&] {
    std::vector<uint64_t> out;
    for (const Executor* op : ops) out.push_back(op->stats().pool_hits + op->stats().pool_misses);
    return out;
  };
  auto render = [](const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    for (const Tuple& t : rows) out.push_back(t.ToString());
    return out;
  };
  const std::vector<std::string> first = render(Drain(root));
  const std::vector<uint64_t> after_first = fetches();
  const std::vector<std::string> second = render(Drain(root));
  const std::vector<uint64_t> after_second = fetches();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(second, first);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_GT(after_first[i], 0u) << "operator " << i;
    EXPECT_EQ(after_second[i] - after_first[i], after_first[i]) << "operator " << i;
  }
}

TEST_F(ExecutorTest, HashJoinRestartsOnReInit) {
  auto build = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  auto probe = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  const Executor* build_scan = build.get();
  const Executor* probe_scan = probe.get();
  HashJoinExecutor join(&ctx_, std::move(build), std::move(probe), {1}, {1}, nullptr, false);
  ExpectRestartRepeats(&join, {build_scan, probe_scan});
  EXPECT_EQ(Drain(&join).size(), 1000u);  // 10 keys x 10 x 10
}

TEST_F(ExecutorTest, GraceHashJoinRestartsOnReInit) {
  // A pool this small forces the Grace path (operator memory = 1 page).
  DiskManager disk;
  BufferPool pool(&disk, 9);
  Catalog catalog(&pool);
  ExecContext ctx(&catalog, &pool);
  Schema schema;
  schema.AddColumn(Column("k", TypeId::kInt64, "big"));
  schema.AddColumn(Column("pad", TypeId::kString, "big"));
  TableInfo* big = *catalog.CreateTable("big", schema);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        catalog.InsertTuple(big, Tuple({Value::Int(i % 50), Value::String(std::string(100, 'x'))}))
            .ok());
  }
  auto build = std::make_unique<SeqScanExecutor>(&ctx, big->schema(), big);
  auto probe = std::make_unique<SeqScanExecutor>(&ctx, big->schema(), big);
  const Executor* build_scan = build.get();
  const Executor* probe_scan = probe.get();
  HashJoinExecutor join(&ctx, std::move(build), std::move(probe), {0}, {0}, nullptr, false);
  ExpectRestartRepeats(&join, {&join, build_scan, probe_scan});
  EXPECT_GT(join.stats().page_writes, 0u);  // both drains spilled
}

TEST_F(ExecutorTest, AggregatesRestartOnReInit) {
  ExprPtr v = MakeColumnRef("t", "v");
  ExprPtr id = MakeColumnRef("t", "id");
  ASSERT_TRUE(v->Bind(table_->schema()).ok());
  ASSERT_TRUE(id->Bind(table_->schema()).ok());
  const std::vector<AggSpecExec> aggs = {{AggFunc::kCountStar, nullptr},
                                         {AggFunc::kSum, id.get()}};
  Schema aggs_schema;
  aggs_schema.AddColumn(Column("count", TypeId::kInt64));
  aggs_schema.AddColumn(Column("sum", TypeId::kInt64));
  Schema grouped_schema;
  grouped_schema.AddColumn(Column("v", TypeId::kInt64, "t"));
  grouped_schema.AddColumn(Column("count", TypeId::kInt64));
  grouped_schema.AddColumn(Column("sum", TypeId::kInt64));

  auto scan = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  const Executor* grouped_scan = scan.get();
  AggregateExecutor grouped(&ctx_, grouped_schema, std::move(scan), {v.get()}, aggs);
  ExpectRestartRepeats(&grouped, {grouped_scan});
  EXPECT_EQ(Drain(&grouped).size(), 10u);

  scan = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  const Executor* global_scan = scan.get();
  AggregateExecutor global(&ctx_, aggs_schema, std::move(scan), {}, aggs);
  ExpectRestartRepeats(&global, {global_scan});
  const std::vector<Tuple> rows = Drain(&global);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].ToString(), "(100, 4950)");
}

TEST_F(ExecutorTest, FilterKeepsMatching) {
  auto scan = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  ExprPtr pred =
      MakeComparison(CompareOp::kEq, MakeColumnRef("t", "v"), MakeLiteral(Value::Int(3)));
  ASSERT_TRUE(pred->Bind(table_->schema()).ok());
  FilterExecutor filter(&ctx_, std::move(scan), pred.get());
  std::vector<Tuple> rows = Drain(&filter);
  EXPECT_EQ(rows.size(), 10u);
  for (const Tuple& r : rows) EXPECT_EQ(r.At(1).AsInt(), 3);
}

TEST_F(ExecutorTest, FilterRejectsNullPredicate) {
  // v = NULL evaluates to NULL -> rejected for every row.
  auto scan = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  ExprPtr pred =
      MakeComparison(CompareOp::kEq, MakeColumnRef("t", "v"), MakeLiteral(Value::Null()));
  ASSERT_TRUE(pred->Bind(table_->schema()).ok());
  FilterExecutor filter(&ctx_, std::move(scan), pred.get());
  EXPECT_TRUE(Drain(&filter).empty());
}

TEST_F(ExecutorTest, ProjectComputesExpressions) {
  auto scan = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  std::vector<ExprPtr> exprs;
  exprs.push_back(std::make_unique<ArithmeticExpr>(ArithOp::kMul, MakeColumnRef("t", "id"),
                                                   MakeLiteral(Value::Int(2))));
  ASSERT_TRUE(exprs[0]->Bind(table_->schema()).ok());
  Schema out;
  out.AddColumn(Column("double_id", TypeId::kInt64));
  ProjectExecutor project(&ctx_, out, std::move(scan), &exprs);
  std::vector<Tuple> rows = Drain(&project);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[7].At(0).AsInt(), 14);
}

TEST_F(ExecutorTest, ValuesEmitsLiterals) {
  std::vector<Tuple> data = {Tuple({Value::Int(1)}), Tuple({Value::Int(2)})};
  Schema schema;
  schema.AddColumn(Column("x", TypeId::kInt64));
  ValuesExecutor values(&ctx_, schema, &data);
  EXPECT_EQ(Drain(&values).size(), 2u);
  EXPECT_EQ(Drain(&values).size(), 2u);  // re-init
}

TEST_F(ExecutorTest, LimitStopsEarly) {
  auto scan = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  LimitExecutor limit(&ctx_, std::move(scan), 7);
  EXPECT_EQ(Drain(&limit).size(), 7u);
}

TEST_F(ExecutorTest, LimitZero) {
  auto scan = std::make_unique<SeqScanExecutor>(&ctx_, table_->schema(), table_);
  LimitExecutor limit(&ctx_, std::move(scan), 0);
  EXPECT_TRUE(Drain(&limit).empty());
}

TEST_F(ExecutorTest, IndexScanRange) {
  IndexInfo* index = *catalog_.CreateIndex("idx_t_id", "t", {"id"}, false);
  std::string lo = EncodeKey({Value::Int(10)});
  std::string hi = EncodeKey({Value::Int(19)});
  IndexScanExecutor scan(&ctx_, table_->schema(), table_, index, lo, true, hi, true, nullptr);
  std::vector<Tuple> rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 10u);
  // Index order = id order.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].At(0).AsInt(), static_cast<int64_t>(10 + i));
  }
}

TEST_F(ExecutorTest, IndexScanWithResidual) {
  IndexInfo* index = *catalog_.CreateIndex("idx_t_id2", "t", {"id"}, false);
  ExprPtr residual =
      MakeComparison(CompareOp::kEq, MakeColumnRef("t", "v"), MakeLiteral(Value::Int(5)));
  ASSERT_TRUE(residual->Bind(table_->schema()).ok());
  std::string lo = EncodeKey({Value::Int(0)});
  std::string hi = EncodeKey({Value::Int(49)});
  IndexScanExecutor scan(&ctx_, table_->schema(), table_, index, lo, true, hi, true,
                         residual.get());
  std::vector<Tuple> rows = Drain(&scan);
  EXPECT_EQ(rows.size(), 5u);  // ids 5, 15, 25, 35, 45
}

TEST_F(ExecutorTest, IndexScanUnbounded) {
  IndexInfo* index = *catalog_.CreateIndex("idx_t_id3", "t", {"id"}, false);
  IndexScanExecutor scan(&ctx_, table_->schema(), table_, index, std::nullopt, true,
                         std::nullopt, true, nullptr);
  EXPECT_EQ(Drain(&scan).size(), 100u);
}

// ------------------------------------------------------- factory coverage --

TEST(ExecutorFactoryTest, BuildsFullPipelineFromPhysicalPlan) {
  Database db;
  tu::LoadEmpDept(&db, 100, 5);
  Result<PhysicalPtr> plan =
      db.PlanQuery("SELECT dname, count(*) FROM emp, dept WHERE emp.dept_id = dept.id "
                   "GROUP BY dname ORDER BY dname LIMIT 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<QueryResult> result = db.ExecutePlan(**plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].At(0).AsString(), "d0");
  EXPECT_EQ(result->rows[0].At(1).AsInt(), 20);
}

}  // namespace
}  // namespace relopt
