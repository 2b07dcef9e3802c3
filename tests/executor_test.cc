// Direct executor tests: scans, filter, project, values, limit, index scan.
#include <gtest/gtest.h>

#include "exec/executor_factory.h"
#include "exec/filter.h"
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
