// Optimizer facade tests: pushdown effects, access path choice end-to-end,
// naive baseline, estimate propagation.
#include <gtest/gtest.h>

#include "adhoc_shapes.h"
#include "differential_queries.h"
#include "test_util.h"
#include "workload/generator.h"

namespace relopt {
namespace {

int CountKind(const PhysicalNode& node, PhysicalNodeKind kind) {
  int n = node.kind() == kind ? 1 : 0;
  for (const PhysicalPtr& child : node.children()) n += CountKind(*child, kind);
  return n;
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() { tu::LoadEmpDept(&db_, 2000, 20); }

  PhysicalPtr Plan(const std::string& sql) {
    Result<PhysicalPtr> plan = db_.PlanQuery(sql);
    EXPECT_TRUE(plan.ok()) << sql << " -> " << plan.status().ToString();
    return plan.ok() ? plan.MoveValue() : nullptr;
  }

  Database db_;
};

TEST_F(OptimizerTest, FilterPushedToScan) {
  PhysicalPtr plan = Plan(
      "SELECT emp.name FROM emp, dept WHERE emp.dept_id = dept.id AND emp.salary > 5500");
  // The salary filter must sit below the join (on the emp side), not above.
  std::string text = plan->ToString();
  // Find the join line and the filter line: filter must come later (deeper).
  size_t join_pos = text.find("Join");
  size_t filter_pos = text.find("salary");
  ASSERT_NE(join_pos, std::string::npos);
  ASSERT_NE(filter_pos, std::string::npos);
  EXPECT_GT(filter_pos, join_pos) << text;
}

TEST_F(OptimizerTest, NaiveModeSkipsEverything) {
  db_.options().optimizer.naive = true;
  PhysicalPtr plan = Plan(
      "SELECT emp.name FROM emp, dept WHERE emp.dept_id = dept.id AND emp.salary > 5500");
  // Naive: NLJ in FROM order with the whole WHERE on top.
  EXPECT_EQ(CountKind(*plan, PhysicalNodeKind::kNestedLoopJoin), 1);
  EXPECT_EQ(CountKind(*plan, PhysicalNodeKind::kHashJoin), 0);
  // The filter sits above the join.
  std::string text = plan->ToString();
  EXPECT_LT(text.find("Filter"), text.find("NestedLoopJoin"));

  // And it still returns the same answer as the optimized plan.
  QueryResult naive = tu::Sql(
      &db_, "SELECT count(*) FROM emp, dept WHERE emp.dept_id = dept.id AND emp.salary > 5500");
  db_.options().optimizer.naive = false;
  QueryResult opt = tu::Sql(
      &db_, "SELECT count(*) FROM emp, dept WHERE emp.dept_id = dept.id AND emp.salary > 5500");
  EXPECT_EQ(naive.rows[0].At(0).AsInt(), opt.rows[0].At(0).AsInt());
}

TEST_F(OptimizerTest, NaiveCostsMoreThanOptimized) {
  const std::string q =
      "SELECT count(*) FROM emp, dept WHERE emp.dept_id = dept.id AND emp.salary > 5500";
  db_.options().optimizer.naive = true;
  tu::Sql(&db_, q);
  uint64_t naive_tuples = db_.last_metrics().tuples_processed;
  db_.options().optimizer.naive = false;
  tu::Sql(&db_, q);
  uint64_t opt_tuples = db_.last_metrics().tuples_processed;
  EXPECT_GT(naive_tuples, 2 * opt_tuples);
}

TEST_F(OptimizerTest, IndexChosenForSelectivePredicate) {
  tu::Sql(&db_, "CREATE INDEX idx_emp_id ON emp (id)");
  PhysicalPtr plan = Plan("SELECT name FROM emp WHERE id = 42");
  EXPECT_EQ(CountKind(*plan, PhysicalNodeKind::kIndexScan), 1) << plan->ToString();
  EXPECT_EQ(CountKind(*plan, PhysicalNodeKind::kSeqScan), 0);
}

TEST_F(OptimizerTest, SeqScanChosenForUnselectivePredicate) {
  tu::Sql(&db_, "CREATE INDEX idx_emp_sal ON emp (salary)");
  PhysicalPtr plan = Plan("SELECT name FROM emp WHERE salary > 1000");
  EXPECT_EQ(CountKind(*plan, PhysicalNodeKind::kSeqScan), 1) << plan->ToString();
}

TEST_F(OptimizerTest, EstimatesPropagatesToRoot) {
  PhysicalPtr plan = Plan("SELECT name FROM emp WHERE salary > 5500");
  EXPECT_GT(plan->est_cost().Total(), 0);
  EXPECT_GT(plan->est_rows(), 0);
  EXPECT_LT(plan->est_rows(), 2000);
}

TEST_F(OptimizerTest, LimitDoesNotBreakPlans) {
  PhysicalPtr plan = Plan("SELECT name FROM emp ORDER BY salary DESC LIMIT 5");
  EXPECT_EQ(plan->kind(), PhysicalNodeKind::kLimit);
  QueryResult r = *db_.ExecutePlan(*plan);
  ASSERT_EQ(r.rows.size(), 5u);
}

TEST_F(OptimizerTest, HavingFilterSurvivesOptimization) {
  QueryResult r = tu::Sql(&db_,
                          "SELECT dept_id, count(*) FROM emp GROUP BY dept_id "
                          "HAVING count(*) > 99 ORDER BY dept_id");
  ASSERT_EQ(r.rows.size(), 20u);  // 2000/20 = 100 per dept, all pass
  QueryResult none = tu::Sql(&db_,
                             "SELECT dept_id, count(*) FROM emp GROUP BY dept_id "
                             "HAVING count(*) > 100");
  EXPECT_TRUE(none.rows.empty());
}

TEST_F(OptimizerTest, ConstantFalseWhereYieldsEmptyPlan) {
  QueryResult r = tu::Sql(&db_, "SELECT name FROM emp WHERE 1 = 2");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(OptimizerTest, ConstantTrueWhereIsDropped) {
  PhysicalPtr plan = Plan("SELECT count(*) FROM emp WHERE 1 = 1");
  EXPECT_EQ(CountKind(*plan, PhysicalNodeKind::kFilter), 0) << plan->ToString();
}

TEST_F(OptimizerTest, StatsModeFlagChangesEstimates) {
  // Build a skewed table where histogram and uniform estimates differ.
  TableSpec spec;
  spec.name = "skewed";
  spec.num_rows = 5000;
  spec.columns = {ColumnSpec::Zipf("z", 50, 1.2)};
  ASSERT_TRUE(GenerateTable(&db_, spec).ok());

  db_.options().optimizer.stats_mode = StatsMode::kHistogram;
  PhysicalPtr hist_plan = Plan("SELECT count(*) FROM skewed WHERE z = 1");
  db_.options().optimizer.stats_mode = StatsMode::kSystemR;
  PhysicalPtr unif_plan = Plan("SELECT count(*) FROM skewed WHERE z = 1");
  // The scan-level row estimates must differ materially.
  const PhysicalNode* hist_scan = hist_plan.get();
  while (!hist_scan->children().empty()) hist_scan = hist_scan->child(0);
  const PhysicalNode* unif_scan = unif_plan.get();
  while (!unif_scan->children().empty()) unif_scan = unif_scan->child(0);
  EXPECT_GT(hist_scan->est_rows(), 2 * unif_scan->est_rows());
}

TEST_F(OptimizerTest, BufferSizeChangesJoinCosts) {
  // Estimated cost of the same join should not increase with more memory.
  const std::string q = "SELECT count(*) FROM emp e1, emp e2 WHERE e1.id = e2.id";
  db_.options().buffer_pool_pages = 16;
  // Note: buffer_pool_pages is fixed at construction; emulate via optimizer
  // option instead.
  db_.options().optimizer.buffer_pages = 16;
  Result<PhysicalPtr> small = db_.PlanQuery(q);
  ASSERT_TRUE(small.ok());
  // PlanQuery overwrites buffer_pages from the real pool, so compare via
  // explicit CostModel instead.
  CostModel small_cm(16);
  CostModel big_cm(4096);
  Cost sort_cost_small = small_cm.Sort(100000, 2500);
  Cost sort_cost_big = big_cm.Sort(100000, 2500);
  EXPECT_GT(small_cm.Total(sort_cost_small), big_cm.Total(sort_cost_big));
}

TEST_F(OptimizerTest, ExplainRendersTree) {
  Result<std::string> text = db_.Explain(
      "SELECT dname, count(*) FROM emp, dept WHERE emp.dept_id = dept.id GROUP BY dname");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Aggregate"), std::string::npos);
  EXPECT_NE(text->find("rows="), std::string::npos);
}

// Planning reads B+tree shape from counters the trees keep, so optimizing
// fetches no page: not for the indexed 7-relation star and 8-relation cycle
// of adhoc_joins, nor for any query of the indexed differential corpus.
TEST_F(OptimizerTest, PlanningFetchesNoPage) {
  auto expect_no_fetch = [](Database* db, const std::string& sql) {
    const BufferPoolStats before = db->pool()->stats();
    Result<PhysicalPtr> plan = db->PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << sql << " -> " << plan.status().ToString();
    const BufferPoolStats after = db->pool()->stats();
    EXPECT_EQ(after.hits + after.misses, before.hits + before.misses) << sql;
  };
  Database adhoc;
  const std::vector<std::string> shapes = tu::LoadAdhocShapes(&adhoc);
  ASSERT_NE(shapes[8].find("st7t"), std::string::npos);
  ASSERT_NE(shapes[14].find("cy8t"), std::string::npos);
  expect_no_fetch(&adhoc, shapes[8] + "100");
  expect_no_fetch(&adhoc, shapes[14] + "100");
  Database corpus;
  tu::LoadDifferentialFixture(&corpus, /*with_indexes=*/true);
  for (const char* sql : tu::kDifferentialQueries) expect_no_fetch(&corpus, sql);
}

}  // namespace
}  // namespace relopt
