#include <gtest/gtest.h>

#include "expr/fold.h"
#include "parser/parser.h"

namespace relopt {

namespace {

/// The columns folded expressions read. No qualifier, so a bound reference
/// renders as its bare name.
Schema FoldSchema() {
  Schema s;
  s.AddColumn(Column("a", TypeId::kInt64, ""));
  s.AddColumn(Column("b", TypeId::kInt64, ""));
  s.AddColumn(Column("flag", TypeId::kBool, ""));
  return s;
}

/// Parses a SELECT-list expression, binds it against FoldSchema() and folds
/// it. Folding keeps the bound type.
std::string FoldOf(const std::string& expr_sql) {
  Result<StatementPtr> stmt = ParseStatement("SELECT " + expr_sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  ExprPtr expr = std::move(static_cast<SelectStmt*>(stmt->get())->items[0].expr);
  Status bound = expr->Bind(FoldSchema());
  EXPECT_TRUE(bound.ok()) << expr_sql << ": " << bound.ToString();
  const TypeId type = expr->result_type();
  ExprPtr folded = FoldConstants(std::move(expr));
  EXPECT_EQ(folded->result_type(), type) << expr_sql;
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
  EXPECT_EQ(FoldOf("NOT flag"), "(NOT flag)");
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

TEST(FoldTest, BooleanColumnsStandAlone) {
  // A bound operand is known to be boolean, so it may stand alone.
  EXPECT_EQ(FoldOf("flag AND true"), "flag");
  EXPECT_EQ(FoldOf("false OR flag"), "flag");
  EXPECT_EQ(FoldOf("flag AND false"), "false");
}

TEST(FoldTest, CaseKeepsItsBoundType) {
  EXPECT_EQ(FoldOf("CASE WHEN false THEN 1 WHEN a = 1 THEN b ELSE 2 END"),
            "CASE WHEN (a = 1) THEN b ELSE 2 END");
  EXPECT_EQ(FoldOf("CASE WHEN true THEN b ELSE a END"), "b");
  EXPECT_EQ(FoldOf("CASE WHEN NULL THEN a END"), "NULL");
  // A DOUBLE CASE stays DOUBLE whatever branches folding leaves it: a taken
  // INT literal widens, a taken INT column keeps its CASE, and a dead arm
  // goes even when its THEN alone made the CASE DOUBLE.
  EXPECT_EQ(FoldOf("CASE WHEN true THEN 1 ELSE a * 0.5 END"), "1");
  EXPECT_EQ(FoldOf("CASE WHEN true THEN 1 ELSE 1.5 / 0 END"), "1");
  EXPECT_EQ(FoldOf("CASE WHEN true THEN a ELSE 2.5 END"), "CASE WHEN true THEN a ELSE 2.5 END");
  EXPECT_EQ(FoldOf("CASE WHEN false THEN 2.5 WHEN flag THEN a END"), "CASE WHEN flag THEN a END");
  EXPECT_EQ(FoldOf("CASE WHEN false THEN 2 WHEN flag THEN a ELSE 2.5 END"),
            "CASE WHEN flag THEN a ELSE 2.5 END");
  EXPECT_EQ(FoldOf("CASE WHEN flag THEN a ELSE 1.5 / 0 END"),
            "CASE WHEN flag THEN a ELSE NULL END");
  EXPECT_EQ(FoldOf("coalesce(a, NULL + 2.5)"), "coalesce(a, NULL)");
}

TEST(FoldTest, ResolvingColumnsKeepsTheFoldedType) {
  // The optimizer moves a folded expression onto a reordered input by
  // re-resolving its columns; the DOUBLE its folded-away branch gave it
  // stays, where binding it again would make it INT.
  Result<StatementPtr> stmt = ParseStatement("SELECT CASE WHEN flag THEN a ELSE 1.5 / 0 END");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ExprPtr expr = std::move(static_cast<SelectStmt*>(stmt->get())->items[0].expr);
  ASSERT_TRUE(expr->Bind(FoldSchema()).ok());
  expr = FoldConstants(std::move(expr));
  Schema reordered;
  reordered.AddColumn(Column("flag", TypeId::kBool, ""));
  reordered.AddColumn(Column("a", TypeId::kInt64, ""));
  ASSERT_TRUE(expr->ResolveColumns(reordered).ok());
  EXPECT_EQ(expr->result_type(), TypeId::kDouble);
  std::vector<const ColumnRefExpr*> refs;
  expr->CollectColumnRefs(&refs);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0]->bound_index(), 0);
  EXPECT_EQ(refs[1]->bound_index(), 1);
  // A column that comes back with another type is a planner bug.
  Schema retyped;
  retyped.AddColumn(Column("flag", TypeId::kBool, ""));
  retyped.AddColumn(Column("a", TypeId::kDouble, ""));
  Status st = expr->ResolveColumns(retyped);
  EXPECT_EQ(st.ToString(), "Internal: column a bound as int64 resolves to double");
}

}  // namespace
}  // namespace relopt
