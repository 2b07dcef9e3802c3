// Optimizer lab: poke at the optimizer interactively from code — compare
// enumeration strategies, stats modes, and EXPLAIN output on one query.
//
//   ./build/examples/optimizer_lab
#include <iostream>

#include "engine/database.h"
#include "workload/queries.h"

using namespace relopt;

namespace {
void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return result.MoveValue();
}
}  // namespace

int main() {
  Database db;

  // A 5-relation chain with geometrically growing sizes: join order matters.
  JoinWorkloadSpec spec;
  spec.num_relations = 5;
  spec.base_rows = 500;
  spec.growth = 3.0;
  spec.with_indexes = true;
  std::string query = Unwrap(BuildChainWorkload(&db, spec));
  std::cout << "workload query:\n  " << query << "\n\n";

  std::cout << "=== enumeration strategies on the same query ===\n";
  for (JoinEnumAlgorithm algo :
       {JoinEnumAlgorithm::kDpBushy, JoinEnumAlgorithm::kDpLeftDeep, JoinEnumAlgorithm::kGreedy,
        JoinEnumAlgorithm::kRandom, JoinEnumAlgorithm::kWorst}) {
    db.options().optimizer.join.algorithm = algo;
    OptimizeInfo info;
    PhysicalPtr plan = Unwrap(db.PlanQuery(query, &info));
    std::cout << "-- " << JoinEnumAlgorithmToString(algo)
              << "  (cost " << plan->est_cost().Total() << ", "
              << info.enum_stats.joins_costed << " joins costed)\n"
              << plan->ToString() << "\n";
  }

  // Execute the DP plan and compare estimate vs actual.
  db.options().optimizer.join.algorithm = JoinEnumAlgorithm::kDpBushy;
  QueryResult result = Unwrap(db.Execute(query));
  const ExecutionMetrics& m = db.last_metrics();
  const Cost& est = db.last_profile().root.est_cost;
  std::cout << "=== DP plan executed ===\n"
            << "result: " << result.rows[0].At(0).ToString() << " rows counted\n"
            << "estimated cost " << est.Total() << " (io=" << est.page_ios
            << ", cpu=" << est.cpu_tuples << ")\n"
            << "actual: " << m.io.page_reads << " reads, " << m.io.page_writes << " writes, "
            << m.tuples_processed << " tuples\n";
  return 0;
}
