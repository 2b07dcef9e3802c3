// Binding folds constants and NormalizeLogicalPlan drops the filters that fold
// to a constant.
#include <gtest/gtest.h>

#include "expr/binder.h"
#include "optimizer/rewriter.h"
#include "parser/parser.h"

namespace relopt {
namespace {

class RewriterTest : public ::testing::Test {
 protected:
  RewriterTest() : pool_(&disk_, 64), catalog_(&pool_) {
    Schema s;
    s.AddColumn(Column("a", TypeId::kInt64, "t"));
    s.AddColumn(Column("b", TypeId::kInt64, "t"));
    EXPECT_TRUE(catalog_.CreateTable("t", std::move(s)).ok());
  }

  LogicalPtr Normalized(const std::string& sql) {
    Result<StatementPtr> stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_);
    Result<LogicalPtr> plan = binder.BindSelect(static_cast<SelectStmt*>(stmt->get()));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Result<LogicalPtr> norm = NormalizeLogicalPlan(plan.MoveValue());
    EXPECT_TRUE(norm.ok()) << norm.status().ToString();
    return norm.ok() ? norm.MoveValue() : nullptr;
  }

  /// The node under the top-level Project.
  const LogicalNode* UnderProject(const LogicalPtr& plan) {
    EXPECT_EQ(plan->kind(), LogicalNodeKind::kProject);
    return plan->child(0);
  }

  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
};

TEST_F(RewriterTest, ConstantTrueFilterRemoved) {
  LogicalPtr plan = Normalized("SELECT a FROM t WHERE 1 = 1");
  EXPECT_EQ(UnderProject(plan)->kind(), LogicalNodeKind::kScan);
}

TEST_F(RewriterTest, TautologyViaAndSimplification) {
  LogicalPtr plan = Normalized("SELECT a FROM t WHERE a > 0 AND true");
  const LogicalNode* filter = UnderProject(plan);
  ASSERT_EQ(filter->kind(), LogicalNodeKind::kFilter);
  // The neutral `true` was folded away.
  EXPECT_EQ(static_cast<const LogicalFilter*>(filter)->predicate()->ToString(), "(t.a > 0)");
}

TEST_F(RewriterTest, ConstantFalseFilterBecomesEmptyValues) {
  LogicalPtr plan = Normalized("SELECT a FROM t WHERE 1 = 2");
  const LogicalNode* node = UnderProject(plan);
  ASSERT_EQ(node->kind(), LogicalNodeKind::kValues);
  EXPECT_TRUE(static_cast<const LogicalValues*>(node)->rows().empty());
  // Schema is preserved so the projection above still binds.
  EXPECT_EQ(node->schema().NumColumns(), 2u);
}

TEST_F(RewriterTest, NullPredicateBehavesLikeFalse) {
  LogicalPtr plan = Normalized("SELECT a FROM t WHERE NULL = 1");
  EXPECT_EQ(UnderProject(plan)->kind(), LogicalNodeKind::kValues);
}

TEST_F(RewriterTest, ArithmeticFoldedInsidePredicate) {
  LogicalPtr plan = Normalized("SELECT a FROM t WHERE a < 2 + 3");
  const LogicalNode* filter = UnderProject(plan);
  ASSERT_EQ(filter->kind(), LogicalNodeKind::kFilter);
  EXPECT_EQ(static_cast<const LogicalFilter*>(filter)->predicate()->ToString(), "(t.a < 5)");
}

TEST_F(RewriterTest, NonConstantFilterUntouched) {
  LogicalPtr plan = Normalized("SELECT a FROM t WHERE a > b");
  EXPECT_EQ(UnderProject(plan)->kind(), LogicalNodeKind::kFilter);
}

TEST_F(RewriterTest, RecursesBelowAggregates) {
  LogicalPtr plan = Normalized("SELECT count(*) FROM t WHERE false");
  // Project -> Aggregate -> (empty) Values.
  const LogicalNode* agg = UnderProject(plan);
  ASSERT_EQ(agg->kind(), LogicalNodeKind::kAggregate);
  EXPECT_EQ(agg->child(0)->kind(), LogicalNodeKind::kValues);
}

TEST_F(RewriterTest, OrShortCircuitToTrueRemovesFilter) {
  LogicalPtr plan = Normalized("SELECT a FROM t WHERE a = 1 OR 1 = 1");
  EXPECT_EQ(UnderProject(plan)->kind(), LogicalNodeKind::kScan);
}

}  // namespace
}  // namespace relopt
