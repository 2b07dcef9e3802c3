// The compiled batch kernels (expr/vector_eval.h) against the reference
// evaluator (reference_eval.h): every expression is bound through the
// binder, then evaluated over a table's rows both ways — by CompileExpr at
// batch sizes 1, 7 and 1024 over a sparse selection vector, and row by row.
// Values, NULLs and error strings must be identical. Batch size 1 runs the
// same kernels as every other size, so this is the check that they agree
// with an independent evaluator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "expr/vector_eval.h"
#include "reference_eval.h"
#include "test_util.h"
#include "workload/generator.h"

namespace relopt {
namespace {

using tu::Sql;

const size_t kBatchSizes[] = {1, 7, 1024};

class VectorEvalTest : public ::testing::Test {
 protected:
  VectorEvalTest() {
    // bench_expr's table at 2000 rows: n is half NULL, s random strings.
    TableSpec t;
    t.name = "t";
    t.num_rows = 2000;
    ColumnSpec n = ColumnSpec::Uniform("n", 0, 999);
    n.null_fraction = 0.5;
    ColumnSpec s;
    s.name = "s";
    s.type = TypeId::kString;
    s.dist = ColumnDist::kRandomString;
    s.string_length = 12;
    t.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("a", 0, 1000000),
                 ColumnSpec::Uniform("b", 0, 999), n, s};
    EXPECT_OK(GenerateTable(&db_, t));
    // Values at the int64 edges next to ordinary ones and a NULL, so an
    // overflowing row may or may not be selected.
    Sql(&db_, "CREATE TABLE edge (a INT)");
    Sql(&db_, "INSERT INTO edge VALUES (1), (9223372036854775800), (-9223372036854775807), "
              "(NULL), (-5), (7)");
    // BOOL columns with NULLs: p is NULL on every 5th row, q on every 7th.
    Sql(&db_, "CREATE TABLE flags (id INT, p BOOL, q BOOL, n INT)");
    std::string insert = "INSERT INTO flags VALUES ";
    for (int i = 0; i < 300; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " +
                (i % 5 == 0 ? "NULL" : (i % 3 == 0 ? "true" : "false")) + ", " +
                (i % 7 == 0 ? "NULL" : (i % 2 == 0 ? "true" : "false")) + ", " +
                std::to_string(i % 11) + ")";
    }
    Sql(&db_, insert);
  }

  /// The bound select-list expression of "SELECT <expr> FROM <table>".
  const Expression* Bind(const std::string& expr, const std::string& table) {
    Result<LogicalPtr> plan = db_.BindQuery("SELECT " + expr + " FROM " + table);
    EXPECT_TRUE(plan.ok()) << expr << ": " << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    const LogicalNode* node = plan->get();
    while (node->kind() != LogicalNodeKind::kProject) node = node->child(0);
    const Expression* bound = static_cast<const LogicalProject*>(node)->exprs()[0].get();
    plans_.push_back(plan.MoveValue());
    return bound;
  }

  std::vector<Tuple> Rows(const std::string& table) {
    return Sql(&db_, "SELECT * FROM " + table).rows;
  }

  Database db_;
  std::vector<LogicalPtr> plans_;  ///< keeps bound expressions alive
};

/// "NULL", or the value with its type, so 1 and 1.0 differ.
std::string Render(const Value& v) {
  if (v.is_null()) return "NULL";
  return std::to_string(static_cast<int>(v.type())) + ":" + v.ToString();
}

/// Evaluates `expr` over `rows` through its compiled kernel tree, one batch
/// of `batch_size` rows at a time with every third row deselected, and row
/// by row through the reference evaluator; both must agree on every selected
/// row, and a batch must fail with the reference's first error among its
/// selected rows.
void ExpectKernelMatchesReference(const Expression* expr, const std::vector<Tuple>& rows,
                                  const std::string& label) {
  for (size_t batch_size : kBatchSizes) {
    CompiledExprPtr kernel = CompileExpr(expr);
    TupleBatch batch(batch_size);
    ColumnVec out;
    for (size_t start = 0; start < rows.size(); start += batch_size) {
      const std::string where = label + " @ batch " + std::to_string(batch_size) + ", row " +
                                std::to_string(start);
      batch.Clear();
      std::vector<uint32_t> sparse;
      for (size_t i = start; i < std::min(rows.size(), start + batch_size); ++i) {
        *batch.AppendRow() = rows[i];
        if (i % 3 != 1) sparse.push_back(static_cast<uint32_t>(i - start));
      }
      *batch.mutable_selection() = sparse;

      std::vector<std::string> expected;
      Status expected_error;
      for (uint32_t r : sparse) {
        Result<Value> v = testing::ReferenceEval(*expr, batch.RowAt(r));
        if (!v.ok()) {
          expected_error = v.status();
          break;
        }
        expected.push_back(Render(*v));
      }
      Status st = kernel->Eval(batch, batch.selection(), &out);
      if (!expected_error.ok()) {
        EXPECT_EQ(st.ToString(), expected_error.ToString()) << where;
        continue;
      }
      ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
      ASSERT_EQ(out.n, sparse.size()) << where;
      for (size_t k = 0; k < sparse.size(); ++k) {
        EXPECT_EQ(out.NullAt(k) ? "NULL" : Render(out.GetValue(k)), expected[k])
            << where << ", selected row " << k;
      }
    }
  }
}

TEST_F(VectorEvalTest, ExpressionCorpusMatchesInterpreter) {
  // The select-list and predicate expressions of bench_expr's E1 queries,
  // plus neighbours of each shape.
  const char* const exprs[] = {
      "(a * 3 + b) * 2 - a / 4",
      "a % 97",
      "b < 50 OR b > 950 OR a % 97 = 0 OR id = 12345",
      "b >= 50 AND (b <= 950 OR n IS NULL)",
      "NOT (b < 500)",
      "CASE WHEN a > 750000 THEN 3 WHEN a > 500000 THEN 2 WHEN a > 250000 THEN 1 ELSE 0 END",
      "CASE WHEN n IS NULL THEN 0 - 1 ELSE n / 10 END",
      "CASE WHEN n > 500 THEN s END",
      "coalesce(n, 0 - 1)",
      "coalesce(n, b * 100, 7)",
      "nullif(b % 3, 0)",
      "n IS NULL OR n > 500",
      "n IS NOT NULL",
      "length(s)",
      "upper(s)",
      "lower(s) < 'm'",
      "length(s) + id",
      "a % 1000",
      "a % 16",
      "abs(b - 500)",
      "a * 0.5 + b",
      "b / (id % 5)",
  };
  const std::vector<Tuple> rows = Rows("t");
  ASSERT_EQ(rows.size(), 2000u);
  for (const char* e : exprs) {
    const Expression* expr = Bind(e, "t");
    ASSERT_NE(expr, nullptr) << e;
    ExpectKernelMatchesReference(expr, rows, e);
  }
}

TEST_F(VectorEvalTest, BoolColumnsMatchInterpreter) {
  // BOOL lanes hold 0/1 with a NULL byte: logic, BOOL-valued CASE and
  // COALESCE/NULLIF, comparisons of BOOLs (false < true) and IS NULL.
  const char* const exprs[] = {
      "p",
      "NOT p",
      "p AND q",
      "p OR q",
      "NOT p OR q AND n > 5",
      "(p OR n < 3) AND NOT (q AND n > 8)",
      "CASE WHEN p THEN q ELSE NOT q END",
      "CASE WHEN n > 7 THEN p WHEN n > 3 THEN q END",
      "p = q",
      "p <> q",
      "p < q",
      "p >= true",
      "(n > 5) = p",
      "p IS NULL",
      "q IS NOT NULL",
      "(p AND q) IS NULL",
      "coalesce(p, q, false)",
      "nullif(p, q)",
  };
  const std::vector<Tuple> rows = Rows("flags");
  ASSERT_EQ(rows.size(), 300u);
  for (const char* e : exprs) {
    const Expression* expr = Bind(e, "flags");
    ASSERT_NE(expr, nullptr) << e;
    ExpectKernelMatchesReference(expr, rows, e);
  }
}

TEST_F(VectorEvalTest, OverflowErrorsMatchInterpreter) {
  // statement_robustness_test's overflow cases, over a table where only
  // some rows overflow: a batch fails exactly when it selects one of them.
  const char* const exprs[] = {
      "a + 100", "a - 100", "a * 2", "(a - 1) / -1", "(a - 1) % -1", "a / -2", "a % 7",
      "abs(a - 1)",
  };
  const std::vector<Tuple> rows = Rows("edge");
  for (const char* e : exprs) {
    const Expression* expr = Bind(e, "edge");
    ASSERT_NE(expr, nullptr) << e;
    ExpectKernelMatchesReference(expr, rows, e);
  }
  // The error is the one the SQL surface reports.
  Result<QueryResult> r = db_.Execute("SELECT a + 100 FROM edge");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "integer overflow in (edge.a + 100)");
  r = db_.Execute("SELECT abs(a - 1) FROM edge");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "integer overflow in abs((edge.a - 1))");
}

}  // namespace
}  // namespace relopt
