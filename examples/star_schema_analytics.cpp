// Star-schema analytics: a small data-warehouse-style workload showing the
// optimizer handling a fact table with several dimensions — the scenario
// where join ordering matters most.
//
//   ./build/examples/star_schema_analytics
#include <iostream>

#include "engine/database.h"
#include "workload/generator.h"

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

  // sales(fact) with customer / product / day dimensions.
  TableSpec sales;
  sales.name = "sales";
  sales.num_rows = 50000;
  sales.columns = {ColumnSpec::Serial("id"),
                   ColumnSpec::Uniform("customer_id", 0, 1999),
                   ColumnSpec::Uniform("product_id", 0, 499),
                   ColumnSpec::Uniform("day_id", 0, 364),
                   ColumnSpec::Uniform("quantity", 1, 10),
                   ColumnSpec::Uniform("price_cents", 100, 99999)};
  Check(GenerateTable(&db, sales));

  TableSpec customers;
  customers.name = "customers";
  customers.num_rows = 2000;
  customers.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("segment", 0, 4),
                       ColumnSpec::Uniform("country", 0, 19)};
  customers.seed = 2;
  Check(GenerateTable(&db, customers));

  TableSpec products;
  products.name = "products";
  products.num_rows = 500;
  products.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("category", 0, 24)};
  products.seed = 3;
  Check(GenerateTable(&db, products));

  TableSpec days;
  days.name = "days";
  days.num_rows = 365;
  days.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("month", 1, 12)};
  days.seed = 4;
  Check(GenerateTable(&db, days));

  Check(db.Execute("CREATE INDEX idx_cust ON customers (id)").status());
  Check(db.Execute("CREATE INDEX idx_prod ON products (id)").status());

  const std::string query =
      "SELECT products.category, count(*) AS n, sum(sales.quantity) AS units "
      "FROM sales, customers, products, days "
      "WHERE sales.customer_id = customers.id "
      "  AND sales.product_id = products.id "
      "  AND sales.day_id = days.id "
      "  AND customers.segment = 2 "
      "  AND days.month = 6 "
      "GROUP BY products.category "
      "ORDER BY units DESC LIMIT 10";

  std::cout << "=== optimizer's plan (4-way star join, two selective dimensions) ===\n"
            << Unwrap(db.Explain(query)) << "\n";

  QueryResult result = Unwrap(db.Execute(query));
  std::cout << "=== top categories in June for segment 2 ===\n" << result.ToString();

  const ExecutionMetrics& m = db.last_metrics();
  const double est_cost = db.last_profile().root.est_cost.Total();
  std::cout << "\nexecution: " << m.tuples_processed << " tuples processed, "
            << m.pool.hits + m.pool.misses << " page accesses, estimate was " << est_cost
            << " cost units\n";

  // Show what join ordering bought us: the same query through the naive
  // planner (FROM-order nested loops, WHERE on top).
  db.options().optimizer.naive = true;
  PhysicalPtr naive_plan = Unwrap(db.PlanQuery(query));
  std::cout << "\nnaive plan estimate (no optimization): " << naive_plan->est_cost().Total()
            << " cost units -- " << naive_plan->est_cost().Total() / est_cost
            << "x the optimized estimate\n";
  return 0;
}
