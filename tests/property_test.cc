// Property-based tests over randomized workloads: every optimizer
// configuration must return identical result sets, estimates must behave
// sanely, and invariants (B+tree integrity after mixed workloads; sort
// output order) must hold under randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>

#include "storage/btree.h"
#include "test_util.h"
#include "types/key_codec.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace relopt {
namespace {

std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---- Parameterized: join topology x optimizer algorithm agreement ---------

struct TopoParam {
  const char* topology;
  int num_relations;
};

// gtest_discover_tests names each CTest test by its printed parameter.
// Without a printer GoogleTest prints the struct's raw bytes, pointer
// included, so the names would change with every build and address-space
// layout. Printing the fields keeps them stable: .../AllAlgorithmsAgree/chain_3.
void PrintTo(const TopoParam& param, std::ostream* os) {
  *os << param.topology << "_" << param.num_relations;
}

class TopologyAgreementTest : public ::testing::TestWithParam<TopoParam> {};

TEST_P(TopologyAgreementTest, AllAlgorithmsAgree) {
  const TopoParam& param = GetParam();
  Database db;
  JoinWorkloadSpec spec;
  spec.num_relations = param.num_relations;
  spec.base_rows = 120;
  spec.growth = 2.0;
  spec.seed = 7;
  Result<std::string> q = [&]() -> Result<std::string> {
    if (std::string(param.topology) == "chain") return BuildChainWorkload(&db, spec);
    if (std::string(param.topology) == "star") return BuildStarWorkload(&db, spec);
    spec.base_rows = 40;
    return BuildCliqueWorkload(&db, spec);
  }();
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpBushy;
  QueryResult reference = tu::Sql(&db, *q);

  for (JoinEnumAlgorithm a :
       {JoinEnumAlgorithm::kDpLeftDeep, JoinEnumAlgorithm::kGreedy,
        JoinEnumAlgorithm::kExhaustive, JoinEnumAlgorithm::kRandom, JoinEnumAlgorithm::kWorst,
        JoinEnumAlgorithm::kDpCcp}) {
    db.options().optimizer.join.algorithm = a;
    // The worst-case baseline can legitimately produce cross-product plans
    // with astronomically many intermediate tuples (that is its purpose);
    // only execute plans whose estimated work is sane.
    Result<PhysicalPtr> plan = db.PlanQuery(*q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    if ((*plan)->est_cost().cpu_tuples > 5e6) continue;
    Result<QueryResult> r = db.ExecutePlan(**plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Canon(reference), Canon(*r))
        << param.topology << "/" << param.num_relations << " with "
        << JoinEnumAlgorithmToString(a);
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologyAgreementTest,
                         ::testing::Values(TopoParam{"chain", 3}, TopoParam{"chain", 5},
                                           TopoParam{"star", 4}, TopoParam{"star", 5},
                                           TopoParam{"clique", 3}, TopoParam{"clique", 4}));

// ---- Parameterized: buffer pool size must never change results -------------

class BufferSizeInvarianceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferSizeInvarianceTest, ResultsIdenticalAcrossPoolSizes) {
  SessionOptions options;
  options.buffer_pool_pages = GetParam();
  Database db(options);
  tu::LoadEmpDept(&db, 400, 8);
  QueryResult r = tu::Sql(
      &db,
      "SELECT dept_id, count(*), sum(salary) FROM emp GROUP BY dept_id ORDER BY dept_id");
  ASSERT_EQ(r.rows.size(), 8u);
  int64_t total = 0;
  for (const Tuple& row : r.rows) total += row.At(1).AsInt();
  EXPECT_EQ(total, 400);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BufferSizeInvarianceTest,
                         ::testing::Values(10, 16, 32, 64, 256, 1024));

// ---- Randomized predicate estimation sanity --------------------------------

TEST(EstimationPropertyTest, SelectivityEstimatesStayInUnitInterval) {
  Database db;
  TableSpec spec;
  spec.name = "t";
  spec.num_rows = 2000;
  spec.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("a", -50, 50),
                  ColumnSpec::Zipf("z", 30, 0.9)};
  ASSERT_TRUE(GenerateTable(&db, spec).ok());

  Rng rng(21);
  const char* cols[] = {"id", "a", "z"};
  const char* ops[] = {"=", "<", "<=", ">", ">=", "<>"};
  for (int i = 0; i < 200; ++i) {
    std::string col = cols[rng.UniformInt(0, 2)];
    std::string op = ops[rng.UniformInt(0, 5)];
    int64_t v = rng.UniformInt(-100, 2100);
    std::string sql = "SELECT count(*) FROM t WHERE " + col + " " + op + " " +
                      std::to_string(v);
    Result<PhysicalPtr> plan = db.PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    // Root estimate within [0, num_rows].
    EXPECT_GE((*plan)->child(0)->est_rows(), 0.0) << sql;
    const PhysicalNode* scan = plan->get();
    while (!scan->children().empty()) scan = scan->child(0);
    EXPECT_LE(scan->est_rows(), 2000.0 * 1.01) << sql;
  }
}

// ---- Randomized queries: estimates vs actuals are finite & plans execute ---

TEST(RandomQueryPropertyTest, RandomConjunctionsExecuteAndMatchNaive) {
  Database db;
  tu::LoadEmpDept(&db, 250, 10);
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    // Random conjunction of 1-3 predicates over emp columns.
    std::string where;
    int terms = static_cast<int>(rng.UniformInt(1, 3));
    for (int t = 0; t < terms; ++t) {
      if (t > 0) where += " AND ";
      switch (rng.UniformInt(0, 2)) {
        case 0:
          where += "salary > " + std::to_string(rng.UniformInt(500, 6500));
          break;
        case 1:
          where += "dept_id = " + std::to_string(rng.UniformInt(0, 12));
          break;
        default:
          where += "id < " + std::to_string(rng.UniformInt(0, 300));
      }
    }
    std::string sql = "SELECT count(*) FROM emp WHERE " + where;
    db.options().optimizer.naive = false;
    QueryResult optimized = tu::Sql(&db, sql);
    db.options().optimizer.naive = true;
    QueryResult naive = tu::Sql(&db, sql);
    db.options().optimizer.naive = false;
    EXPECT_EQ(optimized.rows[0].At(0).AsInt(), naive.rows[0].At(0).AsInt()) << sql;
  }
}

// ---- B+tree invariants under a randomized mixed workload -------------------

TEST(BTreePropertyTest, IntegrityHoldsUnderRandomInsertDelete) {
  DiskManager disk;
  BufferPool pool(&disk, 128);
  Result<BTree> tree_result = BTree::Create(&pool);
  ASSERT_TRUE(tree_result.ok());
  BTree tree = tree_result.MoveValue();

  Rng rng(77);
  std::vector<std::pair<std::string, Rid>> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.UniformDouble() < 0.65) {
      int64_t k = rng.UniformInt(0, 500);
      std::string key = EncodeKey({Value::Int(k)});
      Rid rid{static_cast<PageNo>(step), static_cast<uint16_t>(step % 7)};
      ASSERT_TRUE(tree.Insert(key, rid).ok());
      live.push_back({key, rid});
    } else {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(tree.Delete(live[pick].first, live[pick].second).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(tree.CheckIntegrity().ok()) << "at step " << step;
    }
  }
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  Result<size_t> entries = tree.NumEntries();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(*entries, live.size());
}

// ---- Sort order property under random data ---------------------------------

TEST(SortPropertyTest, OrderByAlwaysSorted) {
  Database db;
  TableSpec spec;
  spec.name = "t";
  spec.num_rows = 3000;
  spec.columns = {ColumnSpec::Uniform("a", 0, 100), ColumnSpec::Uniform("b", 0, 1000)};
  ASSERT_TRUE(GenerateTable(&db, spec).ok());
  QueryResult r = tu::Sql(&db, "SELECT a, b FROM t ORDER BY a, b DESC");
  ASSERT_EQ(r.rows.size(), 3000u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    int64_t a_prev = r.rows[i - 1].At(0).AsInt(), a = r.rows[i].At(0).AsInt();
    ASSERT_LE(a_prev, a);
    if (a_prev == a) {
      ASSERT_GE(r.rows[i - 1].At(1).AsInt(), r.rows[i].At(1).AsInt());
    }
  }
}

}  // namespace
}  // namespace relopt
