#include <gtest/gtest.h>

#include "expr/fold.h"
#include "parser/parser.h"

namespace relopt {
namespace {

/// Parses a SELECT-list expression and folds it.
std::string FoldOf(const std::string& expr_sql) {
  Result<StatementPtr> stmt = ParseStatement("SELECT " + expr_sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* select = static_cast<SelectStmt*>(stmt->get());
  ExprPtr folded = FoldConstants(std::move(select->items[0].expr));
  return folded->ToString();
}

TEST(FoldTest, Arithmetic) {
  EXPECT_EQ(FoldOf("1 + 2 * 3"), "7");
  EXPECT_EQ(FoldOf("10 / 4"), "2");
  EXPECT_EQ(FoldOf("10.0 / 4"), "2.5");
  EXPECT_EQ(FoldOf("1 / 0"), "NULL");
}

TEST(FoldTest, Comparisons) {
  EXPECT_EQ(FoldOf("1 < 2"), "true");
  EXPECT_EQ(FoldOf("'a' = 'b'"), "false");
  EXPECT_EQ(FoldOf("NULL = 1"), "NULL");
}

TEST(FoldTest, PartialFoldKeepsColumns) {
  EXPECT_EQ(FoldOf("a + (2 * 3)"), "(a + 6)");
  EXPECT_EQ(FoldOf("a < 1 + 1"), "(a < 2)");
}

TEST(FoldTest, AndSimplification) {
  EXPECT_EQ(FoldOf("a = 1 AND true"), "(a = 1)");
  EXPECT_EQ(FoldOf("a = 1 AND false"), "false");
  EXPECT_EQ(FoldOf("true AND true"), "true");
}

TEST(FoldTest, OrSimplification) {
  EXPECT_EQ(FoldOf("a = 1 OR false"), "(a = 1)");
  EXPECT_EQ(FoldOf("a = 1 OR true"), "true");
  EXPECT_EQ(FoldOf("false OR false"), "false");
}

TEST(FoldTest, NotFolding) {
  EXPECT_EQ(FoldOf("NOT true"), "false");
  EXPECT_EQ(FoldOf("NOT (1 > 2)"), "true");
  EXPECT_EQ(FoldOf("NOT a"), "(NOT a)");
}

TEST(FoldTest, IsNullFolding) {
  EXPECT_EQ(FoldOf("NULL IS NULL"), "true");
  EXPECT_EQ(FoldOf("1 IS NULL"), "false");
  EXPECT_EQ(FoldOf("1 IS NOT NULL"), "true");
  EXPECT_EQ(FoldOf("a IS NULL"), "(a IS NULL)");
}

TEST(FoldTest, NullPropagationThroughArithmetic) {
  EXPECT_EQ(FoldOf("NULL + 1"), "NULL");
}

TEST(FoldTest, NestedSimplification) {
  // (a = 1 AND true) AND (false OR b = 2) -> (a = 1 AND b = 2)
  EXPECT_EQ(FoldOf("(a = 1 AND true) AND (false OR b = 2)"), "((a = 1) AND (b = 2))");
}

TEST(FoldTest, BetweenFolds) {
  EXPECT_EQ(FoldOf("5 BETWEEN 1 AND 10"), "true");
  EXPECT_EQ(FoldOf("0 BETWEEN 1 AND 10"), "false");
}

TEST(FoldTest, DoesNotTouchAggregates) {
  EXPECT_EQ(FoldOf("sum(a)"), "sum(a)");
}

}  // namespace
}  // namespace relopt
