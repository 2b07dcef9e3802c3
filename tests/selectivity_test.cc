// Selectivity estimation: System-R defaults vs histogram mode.
#include <gtest/gtest.h>

#include "optimizer/selectivity.h"
#include "parser/parser.h"
#include "test_util.h"
#include "workload/generator.h"

namespace relopt {
namespace {

class SelectivityTest : public ::testing::Test {
 protected:
  SelectivityTest() {
    // t: 10000 rows, id serial (ndv 10000), k uniform in [0, 99] (ndv ~100),
    // z Zipf-skewed over 100 values.
    TableSpec spec;
    spec.name = "t";
    spec.num_rows = 10000;
    spec.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("k", 0, 99),
                    ColumnSpec::Zipf("z", 100, 1.1)};
    EXPECT_TRUE(GenerateTable(&db_, spec).ok());
    TableSpec other;
    other.name = "u";
    other.num_rows = 500;
    other.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("k", 0, 9)};
    EXPECT_TRUE(GenerateTable(&db_, other).ok());

    aliases_["t"] = *db_.catalog()->GetTable("t");
    aliases_["u"] = *db_.catalog()->GetTable("u");
  }

  /// Parses a WHERE expression, binds it against t (as the engine would),
  /// and estimates its selectivity.
  double Estimate(const std::string& pred_sql, StatsMode mode) {
    Result<StatementPtr> stmt = ParseStatement("SELECT 1 FROM t WHERE " + pred_sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto* select = static_cast<SelectStmt*>(stmt->get());
    TableInfo* t = *db_.catalog()->GetTable("t");
    Status bind = select->where->Bind(t->schema().WithQualifier("t"));
    EXPECT_TRUE(bind.ok()) << bind.ToString();
    SelectivityEstimator est(&aliases_, mode);
    return est.EstimatePredicate(*select->where);
  }

  Database db_;
  AliasMap aliases_;
};

TEST_F(SelectivityTest, EqualityUsesNdv) {
  double sel = Estimate("k = 50", StatsMode::kSystemR);
  EXPECT_NEAR(sel, 0.01, 0.003);  // ndv ~100
}

TEST_F(SelectivityTest, EqualityOutsideRangeFloorsAtOneRow) {
  // Out-of-range constants used to estimate exactly 0, which collapses whole
  // AND-chains and join cardinalities to zero-cost degenerate plans. The
  // floor is one expected row: 1/10000.
  EXPECT_DOUBLE_EQ(Estimate("k = 500", StatsMode::kSystemR), 1.0 / 10000);
  EXPECT_DOUBLE_EQ(Estimate("k = -1", StatsMode::kSystemR), 1.0 / 10000);
}

TEST_F(SelectivityTest, SargableSelectivityNeverZero) {
  // Every sargable estimate is floored at one expected row, in every mode
  // that has stats to estimate with.
  for (StatsMode mode : {StatsMode::kSystemR, StatsMode::kHistogram}) {
    for (const char* pred : {"k = 12345", "k < -50", "k > 1000", "id = 999999"}) {
      EXPECT_GE(Estimate(pred, mode), 1.0 / 10000) << pred;
    }
  }
}

TEST_F(SelectivityTest, RangeInterpolatesMinMax) {
  EXPECT_NEAR(Estimate("k < 50", StatsMode::kSystemR), 0.5, 0.05);
  EXPECT_NEAR(Estimate("k >= 75", StatsMode::kSystemR), 0.25, 0.05);
  EXPECT_NEAR(Estimate("id < 1000", StatsMode::kSystemR), 0.1, 0.02);
}

TEST_F(SelectivityTest, NoStatsModeUsesMagicConstants) {
  EXPECT_DOUBLE_EQ(Estimate("k = 50", StatsMode::kNoStats), SelectivityEstimator::kDefaultEq);
  EXPECT_DOUBLE_EQ(Estimate("k < 50", StatsMode::kNoStats), SelectivityEstimator::kDefaultRange);
}

TEST_F(SelectivityTest, ConjunctionMultiplies) {
  double sel = Estimate("k = 50 AND id < 1000", StatsMode::kSystemR);
  EXPECT_NEAR(sel, 0.01 * 0.1, 0.005);
}

TEST_F(SelectivityTest, DisjunctionInclusionExclusion) {
  double a = Estimate("k < 50", StatsMode::kSystemR);
  double b = Estimate("k >= 75", StatsMode::kSystemR);
  double both = Estimate("k < 50 OR k >= 75", StatsMode::kSystemR);
  EXPECT_NEAR(both, a + b - a * b, 0.01);
}

TEST_F(SelectivityTest, NotComplements) {
  double sel = Estimate("NOT (k < 50)", StatsMode::kSystemR);
  EXPECT_NEAR(sel, 0.5, 0.05);
}

TEST_F(SelectivityTest, NeComplementsEq) {
  // k has no NULLs, so != is the exact complement of = (within 1e-9).
  double eq = Estimate("k = 50", StatsMode::kSystemR);
  double ne = Estimate("k <> 50", StatsMode::kSystemR);
  EXPECT_NEAR(eq + ne, 1.0, 1e-9);
}

TEST_F(SelectivityTest, NeExcludesNulls) {
  // NULLs satisfy neither `=` nor `!=`. With 30% NULLs, `x != c` selects the
  // non-NULL fraction minus the equality fraction — NOT 1 - eq, which would
  // wrongly count the NULL rows as matching.
  TableSpec spec;
  spec.name = "nn";
  spec.num_rows = 1000;
  ColumnSpec col = ColumnSpec::Uniform("x", 0, 9);
  col.null_fraction = 0.3;
  spec.columns = {col};
  ASSERT_TRUE(GenerateTable(&db_, spec).ok());
  aliases_["nn"] = *db_.catalog()->GetTable("nn");

  Result<StatementPtr> stmt = ParseStatement("SELECT 1 FROM nn WHERE x <> 5");
  ASSERT_TRUE(stmt.ok());
  auto* select = static_cast<SelectStmt*>(stmt->get());
  TableInfo* nn = *db_.catalog()->GetTable("nn");
  ASSERT_TRUE(select->where->Bind(nn->schema().WithQualifier("nn")).ok());
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  double ne = est.EstimatePredicate(*select->where);

  // Ground truth from the engine itself.
  QueryResult r = tu::Sql(&db_, "SELECT count(*) FROM nn WHERE x <> 5");
  double truth = static_cast<double>(r.rows[0].At(0).AsInt()) / 1000.0;
  EXPECT_NEAR(ne, truth, 0.05);
  // And decisively below the NULL-blind 1 - eq ~ 0.97.
  EXPECT_LT(ne, 0.8);
}

TEST_F(SelectivityTest, HistogramBeatsUniformOnSkew) {
  // True frequency of the Zipf head (rank 1).
  QueryResult r = tu::Sql(&db_, "SELECT count(*) FROM t WHERE z = 1");
  double truth = static_cast<double>(r.rows[0].At(0).AsInt()) / 10000.0;
  ASSERT_GT(truth, 0.0);

  double hist = Estimate("z = 1", StatsMode::kHistogram);
  double uniform = Estimate("z = 1", StatsMode::kSystemR);

  double hist_err = std::max(hist / truth, truth / hist);
  double uniform_err = std::max(uniform / truth, truth / uniform);
  EXPECT_LT(hist_err, uniform_err);  // histograms strictly better here
  EXPECT_LT(hist_err, 2.0);          // and within 2x of truth
  EXPECT_GT(uniform_err, 5.0);       // uniform is way off on the head
}

TEST_F(SelectivityTest, SingleValuedBucketsHoldTheirValueOnce) {
  // h(a, b) holds (i % 10, i) for i < 2000, so each of a's ten values fills
  // a bucket of its own (lo == hi): none of that bucket lies below its value,
  // and an inclusive bound adds the value's rows once.
  tu::Sql(&db_, "CREATE TABLE h (a INT, b INT)");
  std::string insert = "INSERT INTO h VALUES ";
  for (int i = 0; i < 2000; ++i) {
    insert += (i > 0 ? ", (" : "(") + std::to_string(i % 10) + ", " + std::to_string(i) + ")";
  }
  tu::Sql(&db_, insert);
  tu::Sql(&db_, "ANALYZE h");
  TableInfo* h = *db_.catalog()->GetTable("h");
  AliasMap aliases{{"h", h}};
  SelectivityEstimator est(&aliases, StatsMode::kHistogram);
  const std::pair<const char*, double> estimates[] = {
      {"a > 8", 200}, {"a >= 8", 400}, {"a < 1", 200}, {"a <= 1", 400}};
  for (const auto& [pred, rows] : estimates) {
    Result<StatementPtr> stmt = ParseStatement(std::string("SELECT 1 FROM h WHERE ") + pred);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    Expression* where = static_cast<SelectStmt*>(stmt->get())->where.get();
    ASSERT_TRUE(where->Bind(h->schema().WithQualifier("h")).ok()) << pred;
    EXPECT_NEAR(est.EstimatePredicate(*where) * 2000, rows, 1e-9) << pred;
  }
}

TEST_F(SelectivityTest, EquiJoinUsesMaxNdv) {
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  // t.k ndv ~100, u.k ndv ~10 -> 1/100.
  double sel = est.EstimateEquiJoin("t", "k", "u", "k");
  EXPECT_NEAR(sel, 0.01, 0.004);
  // id columns: ndv 10000 vs 500 -> 1/10000.
  EXPECT_NEAR(est.EstimateEquiJoin("t", "id", "u", "id"), 1.0 / 10000, 1e-5);
}

TEST_F(SelectivityTest, EquiJoinScalesByNonNullFractions) {
  // Join keys that are NULL never match: with 50% NULLs on one side the join
  // selectivity must halve relative to the all-non-NULL containment estimate.
  TableSpec spec;
  spec.name = "half";
  spec.num_rows = 1000;
  ColumnSpec col = ColumnSpec::Uniform("k", 0, 9);
  col.null_fraction = 0.5;
  spec.columns = {col};
  ASSERT_TRUE(GenerateTable(&db_, spec).ok());
  aliases_["half"] = *db_.catalog()->GetTable("half");

  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  double with_nulls = est.EstimateEquiJoin("half", "k", "u", "k");
  // Analytical value: nn_half * nn_u / max(ndv) = 0.5 * 1.0 / 10.
  EXPECT_NEAR(with_nulls, 0.5 / 10.0, 0.02);
  // Strictly below the all-non-NULL containment estimate for the same pair.
  EXPECT_LT(with_nulls, 1.0 / 10.0 - 0.02);
}

TEST_F(SelectivityTest, ColumnNdv) {
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  EXPECT_NEAR(est.ColumnNdv("t", "id"), 10000, 1);
  EXPECT_NEAR(est.ColumnNdv("t", "k"), 100, 5);
}

TEST_F(SelectivityTest, IsNullUsesNullFraction) {
  TableSpec spec;
  spec.name = "n";
  spec.num_rows = 1000;
  ColumnSpec col = ColumnSpec::Uniform("x", 0, 9);
  col.null_fraction = 0.3;
  spec.columns = {col};
  ASSERT_TRUE(GenerateTable(&db_, spec).ok());
  aliases_["n"] = *db_.catalog()->GetTable("n");

  Result<StatementPtr> stmt = ParseStatement("SELECT 1 FROM n WHERE x IS NULL");
  auto* select = static_cast<SelectStmt*>(stmt->get());
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  EXPECT_NEAR(est.EstimatePredicate(*select->where), 0.3, 0.05);

  Result<StatementPtr> stmt2 = ParseStatement("SELECT 1 FROM n WHERE x IS NOT NULL");
  auto* select2 = static_cast<SelectStmt*>(stmt2->get());
  EXPECT_NEAR(est.EstimatePredicate(*select2->where), 0.7, 0.05);
}

TEST_F(SelectivityTest, UnknownShapesDefault) {
  double sel = Estimate("k + id < 500", StatsMode::kSystemR);
  EXPECT_DOUBLE_EQ(sel, SelectivityEstimator::kDefaultRange);
}

TEST_F(SelectivityTest, ConstantPredicates) {
  EXPECT_DOUBLE_EQ(Estimate("true", StatsMode::kSystemR), 1.0);
  EXPECT_DOUBLE_EQ(Estimate("false", StatsMode::kSystemR), 0.0);
}

TEST_F(SelectivityTest, GroupCountUsesColumnNdv) {
  std::vector<ExprPtr> group_by;
  group_by.push_back(std::make_unique<ColumnRefExpr>("t", "k"));
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  EXPECT_NEAR(est.EstimateGroupCount(group_by, 10000.0), 100.0, 5.0);  // k ndv ~100
}

TEST_F(SelectivityTest, GroupCountScalarAggregateIsOneGroup) {
  SelectivityEstimator est(&aliases_, StatsMode::kHistogram);
  EXPECT_DOUBLE_EQ(est.EstimateGroupCount({}, 10000.0), 1.0);
}

TEST_F(SelectivityTest, GroupCountMultiColumnProductCappedByInput) {
  std::vector<ExprPtr> group_by;
  group_by.push_back(std::make_unique<ColumnRefExpr>("t", "id"));
  group_by.push_back(std::make_unique<ColumnRefExpr>("t", "k"));
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  // id alone is unique per row; the independence product must clamp to input.
  EXPECT_DOUBLE_EQ(est.EstimateGroupCount(group_by, 10000.0), 10000.0);
}

TEST_F(SelectivityTest, GroupCountAddsNullGroup) {
  tu::Sql(&db_, "CREATE TABLE gn (a INT, b INT)");
  tu::Sql(&db_, "INSERT INTO gn VALUES (1, 1), (2, 1), (3, NULL), (4, NULL)");
  tu::Sql(&db_, "ANALYZE");
  aliases_["gn"] = *db_.catalog()->GetTable("gn");
  std::vector<ExprPtr> group_by;
  group_by.push_back(std::make_unique<ColumnRefExpr>("gn", "b"));
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  // One non-null distinct value plus the NULL group.
  EXPECT_DOUBLE_EQ(est.EstimateGroupCount(group_by, 4.0), 2.0);
}

TEST_F(SelectivityTest, GroupCountNonColumnExprUsesDefault) {
  std::vector<ExprPtr> group_by;
  group_by.push_back(std::make_unique<LiteralExpr>(Value::Int(7)));
  SelectivityEstimator est(&aliases_, StatsMode::kSystemR);
  EXPECT_DOUBLE_EQ(est.EstimateGroupCount(group_by, 10000.0),
                   SelectivityEstimator::kDefaultExprNdv);
}

TEST_F(SelectivityTest, GroupCountHistogramModeUsesBucketNdvs) {
  std::vector<ExprPtr> group_by;
  group_by.push_back(std::make_unique<ColumnRefExpr>("t", "z"));
  SelectivityEstimator hist(&aliases_, StatsMode::kHistogram);
  SelectivityEstimator sysr(&aliases_, StatsMode::kSystemR);
  // Bucket distinct counts sum to the column NDV, so both modes land near
  // the true distinct count; histogram mode must stay a sane group count.
  double h = hist.EstimateGroupCount(group_by, 10000.0);
  double s = sysr.EstimateGroupCount(group_by, 10000.0);
  EXPECT_GE(h, 1.0);
  EXPECT_LE(h, 10000.0);
  EXPECT_NEAR(h, s, s);  // within 2x of the NDV-based estimate
}

}  // namespace
}  // namespace relopt
