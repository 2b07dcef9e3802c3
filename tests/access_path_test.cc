// Access path selection tests: path enumeration, bound extraction, costs.
#include <gtest/gtest.h>

#include <utility>

#include "expr/binder.h"
#include "optimizer/access_path.h"
#include "parser/parser.h"
#include "test_util.h"
#include "workload/generator.h"

namespace relopt {
namespace {

class AccessPathTest : public ::testing::Test {
 protected:
  AccessPathTest() : cost_model_(256) {
    TableSpec spec;
    spec.name = "t";
    spec.num_rows = 20000;
    spec.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("k", 0, 99),
                    ColumnSpec::Uniform("v", 0, 999)};
    EXPECT_TRUE(GenerateTable(&db_, spec).ok());
    EXPECT_TRUE(db_.catalog()->CreateIndex("idx_id", "t", {"id"}, false).ok());
    EXPECT_TRUE(db_.catalog()->CreateIndex("idx_k_v", "t", {"k", "v"}, false).ok());
  }

  QueryGraph Graph(const std::string& sql) {
    Result<StatementPtr> stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok());
    Binder binder(db_.catalog());
    Result<LogicalPtr> plan = binder.BindSelect(static_cast<SelectStmt*>(stmt->get()));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    LogicalPtr node = plan.MoveValue();
    while (node->kind() != LogicalNodeKind::kFilter && node->kind() != LogicalNodeKind::kScan) {
      node = node->TakeChild(0);
    }
    Result<QueryGraph> g = BuildQueryGraph(std::move(node), db_.catalog());
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return g.MoveValue();
  }

  std::vector<AccessPath> Paths(const std::string& sql, StatsMode mode = StatsMode::kHistogram) {
    graph_ = Graph(sql);
    aliases_.clear();
    for (const BaseRelation& rel : graph_.relations) aliases_[rel.alias] = rel.table;
    SelectivityEstimator est(&aliases_, mode);
    Result<std::vector<AccessPath>> paths =
        EnumerateAccessPaths(graph_, 0, est, cost_model_, true);
    EXPECT_TRUE(paths.ok()) << paths.status().ToString();
    return paths.MoveValue();
  }

  const AccessPath* FindIndexPath(const std::vector<AccessPath>& paths, const std::string& name) {
    for (const AccessPath& p : paths) {
      if (p.index != nullptr && p.index->name == name) return &p;
    }
    return nullptr;
  }

  Database db_;
  CostModel cost_model_;
  QueryGraph graph_;
  AliasMap aliases_;
};

TEST_F(AccessPathTest, SeqScanAlwaysPresent) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t");
  ASSERT_GE(paths.size(), 1u);
  EXPECT_EQ(paths[0].index, nullptr);
  EXPECT_GT(paths[0].cost.page_ios, 0);
}

TEST_F(AccessPathTest, PointPredicateGetsBoundedIndexPath) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE id = 123");
  const AccessPath* p = FindIndexPath(paths, "idx_id");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->lo_values.size(), 1u);
  EXPECT_TRUE(p->lo_values[0].Equals(Value::Int(123)));
  EXPECT_TRUE(p->hi_values[0].Equals(Value::Int(123)));
  EXPECT_EQ(p->consumed.size(), 1u);
  // Highly selective point lookup beats the seq scan.
  EXPECT_LT(cost_model_.Total(p->cost), cost_model_.Total(paths[0].cost));
  EXPECT_NEAR(p->out_rows, 1.0, 0.5);
}

TEST_F(AccessPathTest, RangePredicateBounds) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE id > 100 AND id <= 200");
  const AccessPath* p = FindIndexPath(paths, "idx_id");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->lo_values.size(), 1u);
  EXPECT_FALSE(p->lo_inclusive);
  ASSERT_EQ(p->hi_values.size(), 1u);
  EXPECT_TRUE(p->hi_inclusive);
  EXPECT_EQ(p->consumed.size(), 2u);
}

TEST_F(AccessPathTest, CompositePrefixEqThenRange) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE k = 5 AND v < 100");
  const AccessPath* p = FindIndexPath(paths, "idx_k_v");
  ASSERT_NE(p, nullptr);
  // lo = (5), hi = (5, 100): equality prefix plus a range on v.
  ASSERT_EQ(p->lo_values.size(), 1u);
  ASSERT_EQ(p->hi_values.size(), 2u);
  EXPECT_TRUE(p->hi_values[1].Equals(Value::Int(100)));
  EXPECT_EQ(p->consumed.size(), 2u);
}

TEST_F(AccessPathTest, NonLeadingColumnDoesNotBound) {
  // v is the second key of idx_k_v; without a k predicate no bound exists.
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE v = 7");
  const AccessPath* p = FindIndexPath(paths, "idx_k_v");
  // The unbounded path may exist (order), but must have no bounds consumed.
  if (p != nullptr) {
    EXPECT_TRUE(p->lo_values.empty());
    EXPECT_TRUE(p->hi_values.empty());
    EXPECT_TRUE(p->consumed.empty());
  }
}

TEST_F(AccessPathTest, IndexOrderReported) {
  // An index path delivers its index's key order, ascending: (k, v) for
  // idx_k_v, an order the table's id order does not give.
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE k > 97");
  const AccessPath* p = FindIndexPath(paths, "idx_k_v");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->index->key_columns.size(), 2u);
  Result<PhysicalPtr> plan = BuildAccessPathPlan(graph_, *p);
  ASSERT_TRUE(plan.ok());
  Result<QueryResult> result = db_.ExecutePlan(**plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->rows.size(), 1u);
  for (size_t i = 1; i < result->rows.size(); ++i) {
    const auto& prev = result->rows[i - 1];
    const auto& row = result->rows[i];
    EXPECT_LE(std::make_pair(prev.At(1).AsInt(), prev.At(2).AsInt()),
              std::make_pair(row.At(1).AsInt(), row.At(2).AsInt()));
  }
}

TEST_F(AccessPathTest, UnselectiveRangeCostsMoreThanSeqScan) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE id >= 0");
  const AccessPath* p = FindIndexPath(paths, "idx_id");
  ASSERT_NE(p, nullptr);
  // Fetching ~every row through an unclustered index must cost more than the
  // seq scan (the classic crossover).
  EXPECT_GT(cost_model_.Total(p->cost), cost_model_.Total(paths[0].cost));
}

TEST_F(AccessPathTest, DisabledIndexScansYieldOnlySeqScan) {
  graph_ = Graph("SELECT id FROM t WHERE id = 5");
  aliases_.clear();
  for (const BaseRelation& rel : graph_.relations) aliases_[rel.alias] = rel.table;
  SelectivityEstimator est(&aliases_, StatsMode::kHistogram);
  Result<std::vector<AccessPath>> paths =
      EnumerateAccessPaths(graph_, 0, est, cost_model_, false);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 1u);
}

TEST_F(AccessPathTest, BuildPlanForSeqScanWithResidual) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE v = 7");
  Result<PhysicalPtr> plan = BuildAccessPathPlan(graph_, paths[0]);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Filter over SeqScan (residual not consumed by any index).
  EXPECT_EQ((*plan)->kind(), PhysicalNodeKind::kFilter);
  EXPECT_EQ((*plan)->child(0)->kind(), PhysicalNodeKind::kSeqScan);
}

TEST_F(AccessPathTest, BuildPlanForIndexScanExecutesCorrectly) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE id = 123");
  const AccessPath* p = FindIndexPath(paths, "idx_id");
  ASSERT_NE(p, nullptr);
  Result<PhysicalPtr> plan = BuildAccessPathPlan(graph_, *p);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind(), PhysicalNodeKind::kIndexScan);
  Result<QueryResult> result = db_.ExecutePlan(**plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].At(0).AsInt(), 123);
}

TEST_F(AccessPathTest, ResidualKeptWhenIndexConsumesOnlySome) {
  std::vector<AccessPath> paths = Paths("SELECT id FROM t WHERE id = 123 AND v = 7");
  const AccessPath* p = FindIndexPath(paths, "idx_id");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->consumed.size(), 1u);  // only id = 123
  Result<PhysicalPtr> plan = BuildAccessPathPlan(graph_, *p);
  ASSERT_TRUE(plan.ok());
  const auto* scan = static_cast<const PhysIndexScan*>(plan->get());
  ASSERT_NE(scan->residual, nullptr);
}

}  // namespace
}  // namespace relopt
