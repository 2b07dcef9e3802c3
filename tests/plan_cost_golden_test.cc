// Golden plan costs. plan_cost_golden.inc records, for every plan below, the
// chosen plan's total cost and the joins the enumerator costed to find it.
// Planning must keep finding the same costs (to 1e-9 relative), and under an
// explicitly chosen algorithm it must cost exactly as many joins.
//
// The table comes from the DISABLED_ writer test below, run from the repo
// root with RELOPT_GOLDEN_OUT=tests/plan_cost_golden.inc and the flags
// --gtest_also_run_disabled_tests --gtest_filter='PlanCostGoldenTest.DISABLED_*'.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "adhoc_shapes.h"
#include "differential_queries.h"
#include "test_util.h"
#include "workload/queries.h"

namespace relopt {
namespace {

struct GoldenRow {
  const char* key;
  double cost;
  unsigned long long joins_costed;
};

const GoldenRow kGolden[] = {
#include "plan_cost_golden.inc"
};

struct Planned {
  std::string key;
  double cost;
  unsigned long long joins_costed;
};

void Plan(Database* db, const std::string& key, const std::string& sql,
          JoinEnumAlgorithm algorithm, std::vector<Planned>* out) {
  db->options().optimizer.join.algorithm = algorithm;
  OptimizeInfo info;
  Result<PhysicalPtr> plan = db->PlanQuery(sql, &info);
  ASSERT_TRUE(plan.ok()) << key << ": " << plan.status().ToString();
  const double cpu_weight = db->options().optimizer.effective_cpu_weight();
  out->push_back(Planned{key + "/" + JoinEnumAlgorithmToString(algorithm),
                         (*plan)->est_cost().Total(cpu_weight), info.enum_stats.joins_costed});
}

/// Plans the whole corpus: the J1 Part A graphs (every topology, n = 2..8,
/// indexes off and on) under each strategy, then the differential corpus and
/// the adhoc_joins shapes under both bushy DPs.
std::vector<Planned> PlanCorpus() {
  std::vector<Planned> out;
  const JoinTopology topologies[] = {JoinTopology::kChain, JoinTopology::kStar,
                                     JoinTopology::kCycle, JoinTopology::kClique,
                                     JoinTopology::kRandom};
  for (JoinTopology topology : topologies) {
    for (int n = topology == JoinTopology::kCycle ? 3 : 2; n <= 8; ++n) {
      for (bool indexed : {false, true}) {
        SessionOptions options;
        options.buffer_pool_pages = 128;
        Database db(options);
        JoinWorkloadSpec spec;
        spec.num_relations = n;
        spec.base_rows = 50;
        spec.growth = 1.6;
        spec.dim_rows = 20;
        spec.with_indexes = indexed;
        Result<std::string> sql = BuildJoinWorkload(&db, topology, spec);
        EXPECT_TRUE(sql.ok()) << sql.status().ToString();
        if (!sql.ok()) continue;
        const std::string key = std::string("j1/") + JoinTopologyToString(topology) + "/n" +
                                std::to_string(n) + (indexed ? "/idx" : "/noidx");
        for (JoinEnumAlgorithm algorithm :
             {JoinEnumAlgorithm::kDpBushy, JoinEnumAlgorithm::kDpCcp,
              JoinEnumAlgorithm::kDpLeftDeep, JoinEnumAlgorithm::kGreedy,
              JoinEnumAlgorithm::kSimpliSquared, JoinEnumAlgorithm::kExhaustive}) {
          if (algorithm == JoinEnumAlgorithm::kExhaustive && n > 6) continue;
          Plan(&db, key, *sql, algorithm, &out);
        }
      }
    }
  }
  const JoinEnumAlgorithm bushy_dps[] = {JoinEnumAlgorithm::kDpBushy, JoinEnumAlgorithm::kDpCcp};
  for (bool indexed : {false, true}) {
    Database db;
    tu::LoadDifferentialFixture(&db, indexed);
    int i = 0;
    for (const char* query : tu::kDifferentialQueries) {
      const std::string key =
          std::string("corpus/") + (indexed ? "idx/" : "noidx/") + std::to_string(i++);
      for (JoinEnumAlgorithm algorithm : bushy_dps) Plan(&db, key, query, algorithm, &out);
    }
  }
  Database db;
  std::vector<std::string> shapes = tu::LoadAdhocShapes(&db);
  for (size_t s = 0; s < shapes.size(); ++s) {
    for (int literal : {100, 520, 940}) {
      const std::string key = "adhoc/" + std::to_string(s) + "/" + std::to_string(literal);
      for (JoinEnumAlgorithm algorithm : bushy_dps) {
        Plan(&db, key, shapes[s] + std::to_string(literal), algorithm, &out);
      }
    }
  }
  return out;
}

TEST(PlanCostGoldenTest, CostsAndJoinsCostedMatchTheTable) {
  std::map<std::string, const GoldenRow*> golden;
  for (const GoldenRow& row : kGolden) golden[row.key] = &row;
  std::vector<Planned> planned = PlanCorpus();
  EXPECT_EQ(planned.size(), golden.size());
  for (const Planned& p : planned) {
    auto it = golden.find(p.key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden row for " << p.key;
      continue;
    }
    const GoldenRow& want = *it->second;
    const double scale = std::max({1.0, std::fabs(p.cost), std::fabs(want.cost)});
    EXPECT_NEAR(p.cost, want.cost, 1e-9 * scale) << p.key;
    EXPECT_EQ(p.joins_costed, want.joins_costed) << p.key;
  }
}

TEST(PlanCostGoldenTest, DISABLED_WriteTable) {
  const char* path = std::getenv("RELOPT_GOLDEN_OUT");
  ASSERT_NE(path, nullptr) << "set RELOPT_GOLDEN_OUT to the table's path";
  std::vector<Planned> planned = PlanCorpus();
  FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr) << path;
  std::fprintf(f, "// Generated by PlanCostGoldenTest.DISABLED_WriteTable: {key, cost, "
                  "joins_costed}.\n");
  for (const Planned& p : planned) {
    std::fprintf(f, "{\"%s\", %.17g, %llu},\n", p.key.c_str(), p.cost, p.joins_costed);
  }
  std::fclose(f);
}

}  // namespace
}  // namespace relopt
