// DPccp join enumeration: cost parity with subset DP on every connected
// topology, the budget fallback ladder, disconnected-graph routing, metrics
// export, and the pinned generated-workload corpus.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "differential_queries.h"
#include "engine/plan_cache.h"
#include "test_util.h"
#include "util/metrics.h"
#include "workload/queries.h"

namespace relopt {
namespace {

const JoinTopology kAllTopologies[] = {JoinTopology::kChain, JoinTopology::kStar,
                                       JoinTopology::kCycle, JoinTopology::kClique,
                                       JoinTopology::kRandom};

std::string BuildWorkload(Database* db, JoinTopology topology, int n, double skew = 0.0) {
  JoinWorkloadSpec spec;
  spec.num_relations = n;
  spec.base_rows = 40;
  spec.growth = 1.7;
  spec.dim_rows = 15;
  spec.fk_skew = skew;
  Result<std::string> q = BuildJoinWorkload(db, topology, spec);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q.ok() ? *q : "";
}

double PlanCost(Database* db, const std::string& query, JoinEnumAlgorithm algorithm,
                OptimizeInfo* info = nullptr) {
  db->options().optimizer.join.algorithm = algorithm;
  Result<PhysicalPtr> plan = db->PlanQuery(query, info);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? (*plan)->est_cost().Total() : -1;
}

// Equal-cost plans of different shape accumulate their cost sums in
// different orders; compare with a tight relative tolerance, not bits.
void ExpectCostEqual(double a, double b, const std::string& label) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, 1e-9 * scale) << label;
}

// The tentpole property: on every connected query graph up to 8 relations,
// DPccp finds a plan costing exactly what exhaustive subset DP finds, while
// never visiting more subsets.
TEST(JoinOrderTest, DpCcpCostMatchesDpBushyOnAllTopologies) {
  for (JoinTopology topology : kAllTopologies) {
    const int min_n = topology == JoinTopology::kCycle ? 3 : 2;
    for (int n = min_n; n <= 8; ++n) {
      Database db;
      std::string query = BuildWorkload(&db, topology, n);
      OptimizeInfo ccp_info, bushy_info;
      double ccp = PlanCost(&db, query, JoinEnumAlgorithm::kDpCcp, &ccp_info);
      double bushy = PlanCost(&db, query, JoinEnumAlgorithm::kDpBushy, &bushy_info);
      std::string label =
          std::string(JoinTopologyToString(topology)) + " n=" + std::to_string(n);
      ExpectCostEqual(ccp, bushy, label);
      EXPECT_EQ(ccp_info.enum_stats.strategy_used, JoinEnumAlgorithm::kDpCcp) << label;
      EXPECT_FALSE(ccp_info.enum_stats.budget_fallback) << label;
      EXPECT_GT(ccp_info.enum_stats.csg_cmp_pairs, 0u) << label;
      EXPECT_LE(ccp_info.enum_stats.subsets_visited, bushy_info.enum_stats.subsets_visited)
          << label;
    }
  }
}

// Zipf-skewed foreign keys change the statistics but not the parity
// property.
TEST(JoinOrderTest, DpCcpCostMatchesDpBushyUnderSkew) {
  for (JoinTopology topology : {JoinTopology::kChain, JoinTopology::kStar}) {
    Database db;
    std::string query = BuildWorkload(&db, topology, 5, /*skew=*/1.1);
    OptimizeInfo info;
    double ccp = PlanCost(&db, query, JoinEnumAlgorithm::kDpCcp, &info);
    double bushy = PlanCost(&db, query, JoinEnumAlgorithm::kDpBushy);
    ExpectCostEqual(ccp, bushy, JoinTopologyToString(topology));
    EXPECT_EQ(info.enum_stats.strategy_used, JoinEnumAlgorithm::kDpCcp);
  }
}

// A query graph in two components has no csg-cmp cover; the ladder must
// route to subset DP and match its plan.
TEST(JoinOrderTest, DisconnectedGraphRoutesToDpBushy) {
  Database db;
  BuildWorkload(&db, JoinTopology::kChain, 4);
  // r0-r1 and r2-r3 joined, no edge between the pairs.
  const std::string query =
      "SELECT count(*) FROM r0, r1, r2, r3 WHERE r0.fk = r1.id AND r2.fk = r3.id";
  OptimizeInfo info;
  double ccp = PlanCost(&db, query, JoinEnumAlgorithm::kDpCcp, &info);
  double bushy = PlanCost(&db, query, JoinEnumAlgorithm::kDpBushy);
  ExpectCostEqual(ccp, bushy, "disconnected");
  EXPECT_EQ(info.enum_stats.strategy_used, JoinEnumAlgorithm::kDpBushy);
  EXPECT_FALSE(info.enum_stats.budget_fallback);
  EXPECT_EQ(info.enum_stats.csg_cmp_pairs, 0u);

  db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpCcp;
  QueryResult ccp_rows = tu::Sql(&db, query);
  db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpBushy;
  QueryResult bushy_rows = tu::Sql(&db, query);
  EXPECT_EQ(ccp_rows.rows[0].At(0).AsInt(), bushy_rows.rows[0].At(0).AsInt());
}

// Single-relation statements never enter enumeration; kDpCcp must behave
// exactly like every other algorithm setting there.
TEST(JoinOrderTest, SingleRelationUnaffected) {
  Database db;
  tu::LoadEmpDept(&db, 100, 5);
  OptimizeInfo info;
  double ccp = PlanCost(&db, "SELECT * FROM emp WHERE id < 5", JoinEnumAlgorithm::kDpCcp, &info);
  double bushy = PlanCost(&db, "SELECT * FROM emp WHERE id < 5", JoinEnumAlgorithm::kDpBushy);
  ExpectCostEqual(ccp, bushy, "single relation");
  EXPECT_FALSE(info.enum_stats.enumerated);
  EXPECT_EQ(info.enum_stats.csg_cmp_pairs, 0u);
}

// With a budget too small for the pair count, the ladder falls back to
// greedy and still plans (and executes) correctly.
TEST(JoinOrderTest, TinyBudgetFallsBackToGreedy) {
  Database db;
  std::string query = BuildWorkload(&db, JoinTopology::kChain, 6);
  db.options().optimizer.join.dp_budget = 5;
  OptimizeInfo info;
  double ccp = PlanCost(&db, query, JoinEnumAlgorithm::kDpCcp, &info);
  EXPECT_TRUE(info.enum_stats.budget_fallback);
  EXPECT_EQ(info.enum_stats.strategy_used, JoinEnumAlgorithm::kGreedy);
  double greedy = PlanCost(&db, query, JoinEnumAlgorithm::kGreedy);
  ExpectCostEqual(ccp, greedy, "budget fallback");

  db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpCcp;
  QueryResult fallback_rows = tu::Sql(&db, query);
  db.options().optimizer.join.dp_budget = 100000;
  QueryResult full_rows = tu::Sql(&db, query);
  EXPECT_EQ(fallback_rows.rows[0].At(0).AsInt(), full_rows.rows[0].At(0).AsInt());
}

// Satellite: subset DP now skips internally disconnected subsets up front
// on connected graphs instead of discovering emptiness split by split.
TEST(JoinOrderTest, DpBushySkipsDisconnectedSubsets) {
  Database db;
  std::string query = BuildWorkload(&db, JoinTopology::kChain, 5);
  OptimizeInfo info;
  PlanCost(&db, query, JoinEnumAlgorithm::kDpBushy, &info);
  // A 5-chain has 26 multi-relation subsets, only 10 of them connected.
  EXPECT_EQ(info.enum_stats.disconnected_subsets_skipped, 16u);
  EXPECT_EQ(info.enum_stats.subsets_visited, 26u);
}

// DPccp is the default, so the pair budget bounds dense graphs that subset
// DP would plan for minutes: a 12-relation clique and a 16-relation star
// over one 50-row table both fall back to greedy under default options.
TEST(JoinOrderTest, DenseJoinsFallBackUnderDefaultOptions) {
  Database db;
  tu::Sql(&db, "CREATE TABLE t (a INT, b INT)");
  std::string rows;
  for (int i = 0; i < 50; ++i) {
    rows += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  tu::Sql(&db, "INSERT INTO t VALUES " + rows);
  tu::Sql(&db, "ANALYZE");
  // Clique: ti.a = tj.b for every pair i < j. Star: t0.a = tj.b.
  auto query = [](int n, bool clique) {
    std::string from = "t t0", where;
    for (int j = 1; j < n; ++j) {
      from += ", t t" + std::to_string(j);
      for (int i = 0; i < (clique ? j : 1); ++i) {
        if (!where.empty()) where += " AND ";
        where += "t" + std::to_string(i) + ".a = t" + std::to_string(j) + ".b";
      }
    }
    return "SELECT count(*) FROM " + from + " WHERE " + where;
  };
  EXPECT_EQ(JoinEnumOptions{}.algorithm, JoinEnumAlgorithm::kDpCcp);
  for (const std::string& sql : {query(12, /*clique=*/true), query(16, /*clique=*/false)}) {
    OptimizeInfo info;
    Result<PhysicalPtr> plan = db.PlanQuery(sql, &info);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(info.enum_stats.strategy_used, JoinEnumAlgorithm::kGreedy) << sql;
    EXPECT_TRUE(info.enum_stats.budget_fallback) << sql;
  }
}

// The chosen strategy and ladder decisions surface in the optimizer trace.
TEST(JoinOrderTest, StrategyAppearsInTrace) {
  Database db;
  std::string query = BuildWorkload(&db, JoinTopology::kChain, 4);
  db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpCcp;
  db.set_trace_optimizer(true);
  tu::Sql(&db, query);
  const PlanTrace* trace = db.last_trace();
  ASSERT_NE(trace, nullptr);
  bool saw_strategy = false;
  for (const PlanTraceEvent& e : trace->events()) {
    if (e.phase == "strategy") {
      saw_strategy = true;
      EXPECT_EQ(e.candidate, "dpccp");
    }
  }
  EXPECT_TRUE(saw_strategy);
}

// Satellite: enumeration statistics flow into the global metrics registry.
TEST(JoinOrderTest, EnumStatsExportedAsMetrics) {
  const EngineMetrics& em = EngineMetrics::Get();
  Database db;
  std::string query = BuildWorkload(&db, JoinTopology::kChain, 5);

  uint64_t pairs0 = em.join_enum_csg_cmp_pairs->value();
  uint64_t subsets0 = em.join_enum_subsets_visited->value();
  uint64_t joins0 = em.join_enum_joins_costed->value();
  uint64_t dpccp0 =
      em.join_enum_strategy[static_cast<size_t>(JoinEnumAlgorithm::kDpCcp)]->value();
  PlanCost(&db, query, JoinEnumAlgorithm::kDpCcp);
  EXPECT_GT(em.join_enum_csg_cmp_pairs->value(), pairs0);
  EXPECT_GT(em.join_enum_subsets_visited->value(), subsets0);
  EXPECT_GT(em.join_enum_joins_costed->value(), joins0);
  EXPECT_EQ(em.join_enum_strategy[static_cast<size_t>(JoinEnumAlgorithm::kDpCcp)]->value(),
            dpccp0 + 1);

  uint64_t skips0 = em.join_enum_disconnected_skips->value();
  PlanCost(&db, query, JoinEnumAlgorithm::kDpBushy);
  EXPECT_GT(em.join_enum_disconnected_skips->value(), skips0);

  uint64_t fallbacks0 = em.join_enum_budget_fallbacks->value();
  uint64_t greedy0 =
      em.join_enum_strategy[static_cast<size_t>(JoinEnumAlgorithm::kGreedy)]->value();
  db.options().optimizer.join.dp_budget = 1;
  PlanCost(&db, query, JoinEnumAlgorithm::kDpCcp);
  EXPECT_EQ(em.join_enum_budget_fallbacks->value(), fallbacks0 + 1);
  EXPECT_EQ(em.join_enum_strategy[static_cast<size_t>(JoinEnumAlgorithm::kGreedy)]->value(),
            greedy0 + 1);

  // And the counters are visible through SQL introspection ('/' is the
  // character after '.', so the range is a prefix match).
  QueryResult r = tu::Sql(&db,
                          "SELECT count(*) FROM relopt_metrics() AS m "
                          "WHERE m.name >= 'relopt.optimizer.join_enum.' "
                          "AND m.name < 'relopt.optimizer.join_enum/'");
  EXPECT_GE(r.rows[0].At(0).AsInt(), 6);
}

// dp_budget participates in the plan-cache fingerprint: the same SQL under a
// different budget must not reuse the cached plan.
TEST(JoinOrderTest, DpBudgetInPlanCacheFingerprint) {
  OptimizerOptions a, b;
  b.join.dp_budget = 7;
  EXPECT_NE(PlanCacheKey("SELECT 1", a), PlanCacheKey("SELECT 1", b));
}

// Drift guard: the literals pinned in differential_queries.h are exactly
// what the builders generate under DifferentialJoinSpec.
TEST(JoinOrderTest, DifferentialCorpusMatchesBuilders) {
  struct {
    JoinTopology topology;
    const char* prefix;
    const char* expected;
  } cases[] = {{JoinTopology::kChain, "jw_c", tu::kJwChainQuery},
               {JoinTopology::kStar, "jw_s", tu::kJwStarQuery},
               {JoinTopology::kCycle, "jw_y", tu::kJwCycleQuery},
               {JoinTopology::kClique, "jw_q", tu::kJwCliqueQuery},
               {JoinTopology::kRandom, "jw_r", tu::kJwRandomQuery}};
  for (const auto& c : cases) {
    Database db;
    Result<std::string> q =
        BuildJoinWorkload(&db, c.topology, tu::DifferentialJoinSpec(c.prefix));
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(*q, c.expected) << JoinTopologyToString(c.topology);
  }
}

// End-to-end: every topology's generated query returns identical results
// under DPccp and under subset DP.
TEST(JoinOrderTest, GeneratedWorkloadsExecuteIdentically) {
  for (JoinTopology topology : kAllTopologies) {
    Database db;
    std::string query = BuildWorkload(&db, topology, 4);
    db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpCcp;
    QueryResult ccp = tu::Sql(&db, query);
    db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpBushy;
    QueryResult bushy = tu::Sql(&db, query);
    ASSERT_FALSE(ccp.rows.empty());
    EXPECT_EQ(ccp.rows[0].At(0).AsInt(), bushy.rows[0].At(0).AsInt())
        << JoinTopologyToString(topology);
  }
}

}  // namespace
}  // namespace relopt
