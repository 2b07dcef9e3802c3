#include <gtest/gtest.h>

#include "parser/parser.h"

namespace relopt {
namespace {

StatementPtr Parse(const std::string& sql) {
  Result<StatementPtr> r = ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? r.MoveValue() : nullptr;
}

// Keeps parsed statements alive for the duration of a test so AsSelect's raw
// pointer stays valid.
std::vector<StatementPtr>& Arena() {
  static std::vector<StatementPtr> arena;
  return arena;
}

SelectStmt* AsSelect(StatementPtr stmt) {
  EXPECT_EQ(stmt->kind, StatementKind::kSelect);
  SelectStmt* raw = static_cast<SelectStmt*>(stmt.get());
  Arena().push_back(std::move(stmt));
  return raw;
}

TEST(ParserTest, CreateTable) {
  StatementPtr stmt = Parse("CREATE TABLE t (a INT, b TEXT, c DOUBLE, d BOOL)");
  auto* create = static_cast<CreateTableStmt*>(stmt.get());
  EXPECT_EQ(create->table_name, "t");
  ASSERT_EQ(create->columns.size(), 4u);
  EXPECT_EQ(create->columns[0].type, TypeId::kInt64);
  EXPECT_EQ(create->columns[1].type, TypeId::kString);
  EXPECT_EQ(create->columns[2].type, TypeId::kDouble);
  EXPECT_EQ(create->columns[3].type, TypeId::kBool);
}

TEST(ParserTest, CreateTableErrors) {
  EXPECT_FALSE(ParseStatement("CREATE TABLE t (a BLOB)").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t a INT").ok());
  EXPECT_FALSE(ParseStatement("CREATE CLUSTERED TABLE t (a INT)").ok());
}

TEST(ParserTest, CreateIndex) {
  StatementPtr stmt = Parse("CREATE INDEX idx ON t (a, b)");
  auto* create = static_cast<CreateIndexStmt*>(stmt.get());
  EXPECT_EQ(create->index_name, "idx");
  EXPECT_EQ(create->table_name, "t");
  EXPECT_EQ(create->columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(create->clustered);

  StatementPtr c = Parse("CREATE CLUSTERED INDEX cidx ON t (a)");
  EXPECT_TRUE(static_cast<CreateIndexStmt*>(c.get())->clustered);
}

TEST(ParserTest, InsertValues) {
  StatementPtr stmt = Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  auto* insert = static_cast<InsertStmt*>(stmt.get());
  EXPECT_EQ(insert->table_name, "t");
  EXPECT_EQ(insert->columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(insert->rows.size(), 2u);
  ASSERT_EQ(insert->rows[0].size(), 2u);
}

TEST(ParserTest, InsertWithoutColumnList) {
  StatementPtr stmt = Parse("INSERT INTO t VALUES (1, 2.5, NULL)");
  auto* insert = static_cast<InsertStmt*>(stmt.get());
  EXPECT_TRUE(insert->columns.empty());
  ASSERT_EQ(insert->rows[0].size(), 3u);
}

TEST(ParserTest, SimpleSelect) {
  SelectStmt* s = AsSelect(Parse("SELECT a, b FROM t WHERE a > 5"));
  EXPECT_EQ(s->items.size(), 2u);
  ASSERT_EQ(s->from.size(), 1u);
  EXPECT_EQ(s->from[0].table_name, "t");
  ASSERT_NE(s->where, nullptr);
}

TEST(ParserTest, SelectStar) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM t"));
  ASSERT_EQ(s->items.size(), 1u);
  EXPECT_TRUE(s->items[0].is_star);
}

TEST(ParserTest, Aliases) {
  SelectStmt* s = AsSelect(Parse("SELECT a AS x, b y FROM t AS t1, u u2"));
  EXPECT_EQ(s->items[0].alias, "x");
  EXPECT_EQ(s->items[1].alias, "y");
  EXPECT_EQ(s->from[0].alias, "t1");
  EXPECT_EQ(s->from[1].alias, "u2");
  EXPECT_EQ(s->from[1].EffectiveName(), "u2");
}

TEST(ParserTest, JoinOnBecomesWhereConjunct) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z > 1"));
  ASSERT_EQ(s->from.size(), 2u);
  ASSERT_NE(s->where, nullptr);
  // WHERE AND the join condition are both present in the predicate.
  std::string where = s->where->ToString();
  EXPECT_NE(where.find("a.x = b.y"), std::string::npos);
  EXPECT_NE(where.find("a.z > 1"), std::string::npos);
}

TEST(ParserTest, MultiJoinChain) {
  SelectStmt* s =
      AsSelect(Parse("SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y"));
  EXPECT_EQ(s->from.size(), 3u);
}

TEST(ParserTest, CrossJoin) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM a CROSS JOIN b"));
  EXPECT_EQ(s->from.size(), 2u);
  EXPECT_EQ(s->where, nullptr);
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  SelectStmt* s = AsSelect(
      Parse("SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2 "
            "ORDER BY a DESC, b ASC LIMIT 10"));
  EXPECT_EQ(s->group_by.size(), 1u);
  ASSERT_NE(s->having, nullptr);
  ASSERT_EQ(s->order_by.size(), 2u);
  EXPECT_TRUE(s->order_by[0].desc);
  EXPECT_FALSE(s->order_by[1].desc);
  EXPECT_EQ(*s->limit, 10);
}

TEST(ParserTest, ExpressionPrecedence) {
  SelectStmt* s = AsSelect(Parse("SELECT 1 + 2 * 3 - 4 / 2"));
  EXPECT_EQ(s->items[0].expr->ToString(), "((1 + (2 * 3)) - (4 / 2))");
}

TEST(ParserTest, BooleanPrecedence) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3"));
  // AND binds tighter than OR.
  EXPECT_EQ(s->where->ToString(), "((a = 1) OR ((b = 2) AND (c = 3)))");
}

TEST(ParserTest, NotPrecedence) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM t WHERE NOT a = 1 AND b = 2"));
  EXPECT_EQ(s->where->ToString(), "((NOT (a = 1)) AND (b = 2))");
}

TEST(ParserTest, BetweenDesugarsToRange) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5"));
  EXPECT_EQ(s->where->ToString(), "((a >= 1) AND (a <= 5))");
}

TEST(ParserTest, NotBetween) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 5"));
  EXPECT_EQ(s->where->ToString(), "(NOT ((a >= 1) AND (a <= 5)))");
}

TEST(ParserTest, InListDesugarsToOrs) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM t WHERE a IN (1, 2, 3)"));
  EXPECT_EQ(s->where->ToString(), "(((a = 1) OR (a = 2)) OR (a = 3))");
}

TEST(ParserTest, IsNull) {
  SelectStmt* s = AsSelect(Parse("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL"));
  EXPECT_EQ(s->where->ToString(), "((a IS NULL) AND (b IS NOT NULL))");
}

TEST(ParserTest, QualifiedColumnsAndLiterals) {
  SelectStmt* s = AsSelect(Parse("SELECT t.a, 'str', 2.5, true, NULL FROM t"));
  EXPECT_EQ(s->items[0].expr->ToString(), "t.a");
  EXPECT_EQ(s->items[1].expr->ToString(), "'str'");
  EXPECT_EQ(s->items[2].expr->ToString(), "2.5");
  EXPECT_EQ(s->items[3].expr->ToString(), "true");
  EXPECT_EQ(s->items[4].expr->ToString(), "NULL");
}

TEST(ParserTest, UnaryMinusFoldsLiterals) {
  SelectStmt* s = AsSelect(Parse("SELECT -5, -2.5, -a"));
  EXPECT_EQ(s->items[0].expr->ToString(), "-5");
  EXPECT_EQ(s->items[1].expr->ToString(), "-2.5");
  EXPECT_EQ(s->items[2].expr->ToString(), "(0 - a)");
}

TEST(ParserTest, AggregateCalls) {
  SelectStmt* s = AsSelect(Parse("SELECT count(*), sum(a), min(b), max(c), avg(d), count(e)"));
  EXPECT_EQ(s->items[0].expr->ToString(), "count(*)");
  EXPECT_EQ(s->items[1].expr->ToString(), "sum(a)");
  EXPECT_EQ(s->items[5].expr->ToString(), "count(e)");
}

TEST(ParserTest, ExplainVariants) {
  StatementPtr stmt = Parse("EXPLAIN SELECT * FROM t");
  auto* explain = static_cast<ExplainStmt*>(stmt.get());
  EXPECT_FALSE(explain->analyze);
  StatementPtr stmt2 = Parse("EXPLAIN ANALYZE SELECT 1");
  EXPECT_TRUE(static_cast<ExplainStmt*>(stmt2.get())->analyze);
}

TEST(ParserTest, AnalyzeStatement) {
  StatementPtr one = Parse("ANALYZE t");
  EXPECT_EQ(static_cast<AnalyzeStmt*>(one.get())->table_name, "t");
  StatementPtr all = Parse("ANALYZE");
  EXPECT_TRUE(static_cast<AnalyzeStmt*>(all.get())->table_name.empty());
}

TEST(ParserTest, DeleteStatement) {
  StatementPtr stmt = Parse("DELETE FROM t WHERE a = 1");
  auto* del = static_cast<DeleteStmt*>(stmt.get());
  EXPECT_EQ(del->table_name, "t");
  ASSERT_NE(del->where, nullptr);
  StatementPtr all = Parse("DELETE FROM t");
  EXPECT_EQ(static_cast<DeleteStmt*>(all.get())->where, nullptr);
}

TEST(ParserTest, ScriptWithMultipleStatements) {
  Result<std::vector<StatementPtr>> r =
      ParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseStatement("SELECT FROM t").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES 1").ok());
  EXPECT_FALSE(ParseStatement("FROB x").ok());
  EXPECT_FALSE(ParseStatement("SELECT (1 + 2").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t JOIN u").ok());  // missing ON
}

TEST(ParserTest, ExpressionDepthIsLimited) {
  // Nesting (parentheses, NOT) and operator chains both count toward the
  // one limit; the statement fails with a ParseError instead of recursing
  // until the stack runs out.
  const int limit = kMaxExpressionDepth;
  std::string parens = "SELECT " + std::string(limit, '(') + "1" + std::string(limit, ')');
  std::string chain = "SELECT a";
  for (int i = 1; i < limit + 1; ++i) chain += " + a";
  std::string nots = "SELECT ";
  for (int i = 0; i < limit; ++i) nots += "NOT ";
  for (const std::string& sql : {parens, chain, nots + "true"}) {
    Result<StatementPtr> r = ParseStatement(sql);
    ASSERT_FALSE(r.ok()) << sql.substr(0, 40);
    EXPECT_NE(r.status().ToString().find("expression nests deeper than"), std::string::npos)
        << r.status().ToString();
  }
  // One level less parses.
  EXPECT_TRUE(ParseStatement("SELECT " + std::string(limit - 1, '(') + "1" +
                             std::string(limit - 1, ')'))
                  .ok());
  EXPECT_TRUE(ParseStatement(chain.substr(0, chain.size() - 4)).ok());
  EXPECT_TRUE(ParseStatement(nots.substr(0, nots.size() - 4) + "true").ok());
}

TEST(ParserTest, ParseStatementRejectsMultiple) {
  EXPECT_FALSE(ParseStatement("SELECT 1; SELECT 2").ok());
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  EXPECT_TRUE(ParseStatement("select * from t where a = 1 order by a limit 5").ok());
  EXPECT_TRUE(ParseStatement("SeLeCt * FrOm t").ok());
}

}  // namespace
}  // namespace relopt
