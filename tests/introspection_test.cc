// SQL-surfaced introspection: the relopt_metrics() / relopt_query_log() /
// relopt_operator_stats() table functions through ordinary SQL, and the
// acceptance matrix — the global MetricsRegistry page-I/O counters must match
// the per-statement counters and the summed EXPLAIN ANALYZE attribution
// exactly, across the differential corpus at row/batch x parallelism 1/2/4/8.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "differential_queries.h"
#include "engine/table_functions.h"
#include "test_util.h"
#include "util/metrics.h"

namespace relopt {
namespace {

using tu::IntCell;
using tu::Sql;

TEST(IntrospectionTest, MetricsTableFunctionThroughSql) {
  // A tiny pool under a multi-page table forces real page reads.
  SessionOptions opts;
  opts.buffer_pool_pages = 8;
  Database db(opts);
  tu::LoadEmpDept(&db, 3000, 10);
  Sql(&db, "SELECT * FROM emp WHERE salary > 2000");

  // Filter on an alias-qualified column; exactly one row per metric name.
  QueryResult r = Sql(&db,
                      "SELECT m.name, m.kind, m.value FROM relopt_metrics() AS m "
                      "WHERE m.name = 'relopt.disk.page_reads'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].At(0).AsString(), "relopt.disk.page_reads");
  EXPECT_EQ(r.rows[0].At(1).AsString(), "counter");
  EXPECT_GT(r.rows[0].At(2).AsDouble(), 0.0);

  // Aggregates and ORDER BY compose like any other relation.
  EXPECT_GT(IntCell(Sql(&db, "SELECT count(*) FROM relopt_metrics()")), 10);
  QueryResult ordered =
      Sql(&db, "SELECT name FROM relopt_metrics() ORDER BY name LIMIT 3");
  ASSERT_EQ(ordered.rows.size(), 3u);
  EXPECT_LE(ordered.rows[0].At(0).AsString(), ordered.rows[1].At(0).AsString());

  // Function names are case-insensitive like table names.
  EXPECT_GT(IntCell(Sql(&db, "SELECT count(*) FROM RELOPT_METRICS()")), 0);
}

TEST(IntrospectionTest, QueryLogTableFunctionThroughSql) {
  Database db;
  tu::LoadEmpDept(&db, 100, 5);
  Sql(&db, "SELECT count(*) FROM emp WHERE salary > 3000");

  QueryResult r = Sql(&db,
                      "SELECT q.verb, q.sql, q.rows FROM relopt_query_log() AS q "
                      "WHERE q.verb = 'select'");
  ASSERT_FALSE(r.rows.empty());
  bool found = false;
  for (const Tuple& row : r.rows) {
    EXPECT_EQ(row.At(0).AsString(), "select");
    if (row.At(1).AsString() == "select count(*) from emp where salary > ?") {
      found = true;
      EXPECT_EQ(row.At(2).AsInt(), 1);
    }
    // The snapshot is taken at executor Init: a statement never sees itself.
    EXPECT_EQ(row.At(1).AsString().find("relopt_query_log"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(IntrospectionTest, OperatorStatsTableFunctionThroughSql) {
  Database db;
  tu::LoadEmpDept(&db, 100, 5);
  Sql(&db, "SELECT dept_id, count(*) FROM emp GROUP BY dept_id");

  QueryResult r = Sql(&db,
                      "SELECT op, actual_rows, q_error FROM relopt_operator_stats() "
                      "WHERE query_id > 0");
  ASSERT_FALSE(r.rows.empty());
  bool has_scan = false;
  for (const Tuple& row : r.rows) {
    if (row.At(0).AsString() == "SeqScan" || row.At(0).AsString() == "IndexScan") {
      has_scan = true;
      EXPECT_GT(row.At(1).AsInt(), 0);
    }
    if (!row.At(2).is_null()) {
      EXPECT_GE(row.At(2).AsDouble(), 1.0);
    }
  }
  EXPECT_TRUE(has_scan);
}

TEST(IntrospectionTest, TableFunctionErrorCases) {
  Database db;
  tu::LoadEmpDept(&db, 10, 2);

  // Table functions must be the sole FROM item (no joins).
  Result<QueryResult> joined =
      db.Execute("SELECT * FROM relopt_metrics() AS m, emp");
  ASSERT_FALSE(joined.ok());
  EXPECT_NE(joined.status().message().find("only FROM item"), std::string::npos)
      << joined.status().ToString();

  // Unknown function names are a bind error, not a missing table.
  Result<QueryResult> unknown = db.Execute("SELECT * FROM nosuch_fn()");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown table function"), std::string::npos)
      << unknown.status().ToString();

  // Arguments are rejected at parse time.
  Result<QueryResult> args = db.Execute("SELECT * FROM relopt_metrics(1)");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.status().message().find("no arguments"), std::string::npos)
      << args.status().ToString();
}

TEST(IntrospectionTest, PrometheusEndpointRenders) {
  Database db;
  tu::LoadEmpDept(&db, 50, 5);
  Sql(&db, "SELECT * FROM emp");
  std::string prom = MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE relopt_disk_page_reads counter"), std::string::npos);
  EXPECT_NE(prom.find("relopt_engine_statement_us_bucket"), std::string::npos);
}

// ---- acceptance matrix ------------------------------------------------------
//
// For every corpus query, three independently-maintained page-read counts must
// agree exactly:
//   1. the global MetricsRegistry counter delta (disk-manager instrumentation),
//   2. the per-statement ExecutionMetrics delta (DiskManager::stats delta), and
//   3. the summed EXPLAIN ANALYZE per-operator attribution (PlanProfile).
// Checked at parallelism 1/2/4/8, each at batch size 1 and 1024.
class IntrospectionMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(IntrospectionMatrixTest, RegistryMatchesProfileAttribution) {
  const int parallelism = GetParam();
  const EngineMetrics& em = EngineMetrics::Get();
  // Small pool: the corpus must actually hit the disk, so a counter that
  // silently stopped advancing cannot pass as "0 == 0" across the board.
  SessionOptions opts;
  opts.buffer_pool_pages = 16;
  Database db(opts);
  tu::LoadDifferentialFixture(&db);
  // Grow emp past the pool (~100 rows per 4K page vs 16 frames) so scans do
  // real disk reads; only counter agreement is checked, not results.
  std::string extra = "INSERT INTO emp VALUES ";
  for (int i = 300; i < 3000; ++i) {
    if (i > 300) extra += ", ";
    extra += "(" + std::to_string(i) + ", 'e" + std::to_string(i) + "', " +
             std::to_string(i % 10) + ", " + std::to_string(1000 + (i * 37) % 5000) + ")";
  }
  Sql(&db, extra);
  Sql(&db, "ANALYZE");
  db.set_parallelism(parallelism);
  uint64_t total_reads = 0;

  for (size_t batch_size : {size_t{1}, TupleBatch::kDefaultCapacity}) {
    db.set_batch_size(batch_size);
    for (const char* q : tu::kDifferentialQueries) {
      const std::string mode = std::string(q) + " @ parallelism " +
                               std::to_string(parallelism) + ", batch " +
                               std::to_string(batch_size);
      const uint64_t reads_before = em.disk_page_reads->value();
      const uint64_t writes_before = em.disk_page_writes->value();
      Sql(&db, q);
      const uint64_t reads_delta = em.disk_page_reads->value() - reads_before;
      const uint64_t writes_delta = em.disk_page_writes->value() - writes_before;

      const ExecutionMetrics& m = db.last_metrics();
      EXPECT_EQ(reads_delta, m.io.page_reads) << mode;
      EXPECT_EQ(writes_delta, m.io.page_writes) << mode;
      ASSERT_TRUE(db.last_profile().valid) << mode;
      EXPECT_EQ(db.last_profile().Total().page_reads, m.io.page_reads) << mode;
      EXPECT_EQ(db.last_profile().Total().page_writes, m.io.page_writes) << mode;
      total_reads += reads_delta;
    }
  }
  // The corpus as a whole did real I/O; the agreement above was not vacuous.
  EXPECT_GT(total_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, IntrospectionMatrixTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace relopt
