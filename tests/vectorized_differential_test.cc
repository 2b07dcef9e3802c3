// Row-vs-vectorized differential harness: every query must return the same
// bag of rows in row-at-a-time and batch-at-a-time mode at any batch size,
// fail with the same error when it fails, keep EXPLAIN ANALYZE row/page-I/O
// accounting identical, and compose with morsel-driven parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "differential_queries.h"
#include "exec/plan_profile.h"
#include "test_util.h"
#include "util/metrics.h"

namespace relopt {
namespace {

using tu::CheckedExecute;
using tu::CheckedExecutePlan;
using tu::CheckedSql;

std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> ColumnNames(const Schema& s) {
  std::vector<std::string> names;
  for (size_t i = 0; i < s.NumColumns(); ++i) names.push_back(s.ColumnAt(i).QualifiedName());
  return names;
}

// The corpus lives in differential_queries.h, shared with the
// serial-vs-parallel suite so both harnesses cover the same queries.
using tu::kDifferentialFailingQueries;
using tu::kDifferentialQueries;

const size_t kBatchSizes[] = {1, 7, 1024};

class VectorizedDifferentialTest : public ::testing::Test {
 protected:
  VectorizedDifferentialTest() { tu::LoadDifferentialFixture(&db_); }

  QueryResult RunRowMode(const std::string& sql) {
    db_.set_vectorized(false);
    QueryResult r = CheckedSql(&db_, sql);
    db_.set_vectorized(true);
    return r;
  }

  QueryResult RunVectorized(const std::string& sql, size_t batch_size) {
    db_.set_vectorized(true);
    db_.set_batch_size(batch_size);
    return CheckedSql(&db_, sql);
  }

  void CheckRowVsVectorized(const std::string& sql, size_t batch_size) {
    QueryResult row = RunRowMode(sql);
    QueryResult vec = RunVectorized(sql, batch_size);
    EXPECT_EQ(ColumnNames(row.schema), ColumnNames(vec.schema)) << sql;
    EXPECT_EQ(Canon(row), Canon(vec)) << sql << " @ batch_size " << batch_size;
  }

  Database db_;
};

TEST_F(VectorizedDifferentialTest, EveryQueryAgreesAtEveryBatchSize) {
  for (const char* q : kDifferentialQueries) {
    for (size_t bs : kBatchSizes) CheckRowVsVectorized(q, bs);
  }
}

TEST_F(VectorizedDifferentialTest, ErrorsAreIdenticalAcrossModes) {
  for (const char* q : kDifferentialFailingQueries) {
    db_.set_vectorized(false);
    Result<QueryResult> row = CheckedExecute(&db_, q);
    db_.set_vectorized(true);
    for (size_t bs : kBatchSizes) {
      db_.set_batch_size(bs);
      Result<QueryResult> vec = CheckedExecute(&db_, q);
      EXPECT_FALSE(row.ok()) << q;
      EXPECT_FALSE(vec.ok()) << q;
      EXPECT_EQ(row.status().ToString(), vec.status().ToString())
          << q << " @ batch_size " << bs;
    }
  }
}

/// Flattens a profile tree into (op, rows_produced) in pre-order.
void FlattenRows(const OperatorProfile& p, std::vector<std::pair<std::string, uint64_t>>* out) {
  out->emplace_back(p.op, p.stats.rows_produced);
  for (const OperatorProfile& c : p.children) FlattenRows(c, out);
}

TEST_F(VectorizedDifferentialTest, PerOperatorRowCountsMatchRowMode) {
  // LIMIT queries are excluded: batch mode legitimately reads ahead below a
  // LIMIT (a child fills a whole batch before the LIMIT truncates), so
  // per-operator row counts under LIMIT differ by design. Every fully
  // consumed plan must account identically.
  for (const char* q : kDifferentialQueries) {
    if (std::string(q).find("LIMIT") != std::string::npos) continue;
    RunRowMode(q);
    ASSERT_TRUE(db_.last_profile().valid) << q;
    std::vector<std::pair<std::string, uint64_t>> row_rows;
    FlattenRows(db_.last_profile().root, &row_rows);

    for (size_t bs : kBatchSizes) {
      RunVectorized(q, bs);
      ASSERT_TRUE(db_.last_profile().valid) << q;
      std::vector<std::pair<std::string, uint64_t>> vec_rows;
      FlattenRows(db_.last_profile().root, &vec_rows);
      EXPECT_EQ(row_rows, vec_rows) << q << " @ batch_size " << bs;
    }
  }
}

TEST_F(VectorizedDifferentialTest, PageIoIdenticalColdCache) {
  // Both drive modes pin one page at a time through the same view iterators,
  // so an identical cold-cache read count is a hard requirement — vectorized
  // execution saves CPU, not I/O. (LIMIT read-ahead would break this, so the
  // corpus here is full-consumption queries.)
  const char* const io_queries[] = {
      "SELECT * FROM emp",
      "SELECT id, salary * 2 + 1 FROM emp WHERE id < 50",
      "SELECT count(*), sum(emp.salary) FROM emp, dept WHERE emp.dept_id = dept.id",
      "SELECT dept_id, count(*) FROM emp WHERE salary > 2000 GROUP BY dept_id ORDER BY dept_id",
      "SELECT dept_id, avg(salary) FROM emp GROUP BY dept_id",
      "SELECT b, count(*), sum(a), avg(a) FROM nulls_t GROUP BY b",
  };
  for (const char* q : io_queries) {
    PhysicalPtr plan;
    {
      Result<PhysicalPtr> p = db_.PlanQuery(q);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      plan = p.MoveValue();
    }

    db_.set_vectorized(false);
    ASSERT_OK(db_.pool()->FlushAll());
    ASSERT_OK(db_.pool()->EvictAll());
    Result<QueryResult> row = CheckedExecutePlan(&db_, *plan, q);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    uint64_t row_reads = db_.last_metrics().io.page_reads;
    uint64_t row_writes = db_.last_metrics().io.page_writes;
    ASSERT_TRUE(db_.last_profile().valid);
    uint64_t row_profile_reads = db_.last_profile().TotalPageReads();

    db_.set_vectorized(true);
    for (size_t bs : kBatchSizes) {
      db_.set_batch_size(bs);
      ASSERT_OK(db_.pool()->FlushAll());
      ASSERT_OK(db_.pool()->EvictAll());
      Result<QueryResult> vec = CheckedExecutePlan(&db_, *plan, q);
      ASSERT_TRUE(vec.ok()) << vec.status().ToString();
      EXPECT_EQ(db_.last_metrics().io.page_reads, row_reads) << q << " @ batch_size " << bs;
      EXPECT_EQ(db_.last_metrics().io.page_writes, row_writes) << q << " @ batch_size " << bs;
      // Per-operator attribution still sums exactly to the query totals.
      ASSERT_TRUE(db_.last_profile().valid);
      EXPECT_EQ(db_.last_profile().TotalPageReads(), db_.last_metrics().io.page_reads) << q;
      EXPECT_EQ(db_.last_profile().TotalPageReads(), row_profile_reads) << q;
    }
  }
}

TEST_F(VectorizedDifferentialTest, ComposesWithParallelism) {
  // Vectorized + morsel parallelism stacked: workers drive their fragments
  // through NextBatch and the Gather adopts whole batches. Reference is
  // serial row mode.
  for (const char* q : kDifferentialQueries) {
    QueryResult reference = RunRowMode(q);
    for (size_t parallelism : {2u, 4u}) {
      db_.set_parallelism(parallelism);
      for (size_t bs : {size_t{7}, size_t{1024}}) {
        QueryResult vec = RunVectorized(q, bs);
        EXPECT_EQ(Canon(reference), Canon(vec))
            << q << " @ parallelism " << parallelism << " batch_size " << bs;
      }
      db_.set_parallelism(1);
    }
  }
}

/// Recursively finds the first profile node whose op matches.
const OperatorProfile* FindOp(const OperatorProfile& p, const std::string& op) {
  if (p.op == op) return &p;
  for (const OperatorProfile& c : p.children) {
    if (const OperatorProfile* hit = FindOp(c, op)) return hit;
  }
  return nullptr;
}

TEST_F(VectorizedDifferentialTest, ScanStatsExactUnderVectorizedParallelism) {
  db_.set_parallelism(4);
  db_.set_batch_size(64);
  CheckedSql(&db_, "SELECT count(*) FROM emp");
  db_.set_parallelism(1);
  const PlanProfile& profile = db_.last_profile();
  ASSERT_TRUE(profile.valid);
  const OperatorProfile* scan = FindOp(profile.root, "SeqScan");
  ASSERT_NE(scan, nullptr);
  // One MorselScan clone per worker; merged stats still show one Init per
  // worker and the exact row count, now with batch accounting on top.
  EXPECT_EQ(scan->stats.init_calls, 4u);
  EXPECT_EQ(scan->stats.rows_produced, 300u);
  EXPECT_GT(scan->stats.batches_produced, 0u);
}

TEST_F(VectorizedDifferentialTest, BatchesProducedCountsBatchCalls) {
  db_.set_batch_size(64);
  QueryResult r = CheckedSql(&db_, "SELECT * FROM emp");
  EXPECT_EQ(r.rows.size(), 300u);
  const PlanProfile& profile = db_.last_profile();
  ASSERT_TRUE(profile.valid);
  const OperatorProfile* scan = FindOp(profile.root, "SeqScan");
  ASSERT_NE(scan, nullptr);
  // 300 rows at 64/batch: four full batches then a final partial batch on
  // the end-of-stream call.
  EXPECT_EQ(scan->stats.batches_produced, 5u);
  EXPECT_EQ(scan->stats.next_calls, 5u);
  EXPECT_EQ(scan->stats.rows_produced, 300u);
  // EXPLAIN ANALYZE text renders the batch counter.
  EXPECT_NE(profile.ToText().find("batches="), std::string::npos);
  EXPECT_NE(profile.ToJson().find("\"batches_produced\":"), std::string::npos);
}

// --- selection-vector edge cases, end to end -------------------------------

TEST_F(VectorizedDifferentialTest, AllRowsFilteredBatches) {
  // Every batch survives the scan but dies in the filter: NextBatch returns
  // true with zero selected rows and the driver keeps pulling.
  for (size_t bs : kBatchSizes) {
    QueryResult r = RunVectorized("SELECT id FROM emp WHERE id < 0", bs);
    EXPECT_TRUE(r.rows.empty());
  }
  CheckRowVsVectorized("SELECT id FROM emp WHERE id < 0", 7);
}

TEST_F(VectorizedDifferentialTest, EmptyTableProducesNoBatches) {
  for (size_t bs : kBatchSizes) {
    QueryResult r = RunVectorized("SELECT * FROM empty_t", bs);
    EXPECT_TRUE(r.rows.empty());
  }
}

TEST_F(VectorizedDifferentialTest, LimitExactlyAtBatchBoundary) {
  // LIMIT == batch size: the truncation path runs with zero rows to cut and
  // the next NextBatch call must return false without touching the child.
  for (int64_t limit : {5, 50, 300}) {
    std::string q = "SELECT id FROM emp LIMIT " + std::to_string(limit);
    QueryResult row = RunRowMode(q);
    // Batch size equal to, just below, and just above the limit.
    for (size_t bs :
         {static_cast<size_t>(limit), static_cast<size_t>(limit) - 1,
          static_cast<size_t>(limit) + 1}) {
      if (bs == 0) continue;
      QueryResult vec = RunVectorized(q, bs);
      EXPECT_EQ(row.rows.size(), vec.rows.size()) << q << " @ batch_size " << bs;
      EXPECT_EQ(Canon(row), Canon(vec)) << q << " @ batch_size " << bs;
    }
  }
}

TEST_F(VectorizedDifferentialTest, NullHeavyPredicates) {
  // Two thirds of nulls_t.b is NULL: the conjunct-wise batch filter must
  // reject NULL like false (three-valued logic), and IS NULL must keep it.
  const char* const null_queries[] = {
      "SELECT a FROM nulls_t WHERE b > 100",
      "SELECT a FROM nulls_t WHERE b IS NULL",
      "SELECT a FROM nulls_t WHERE b IS NOT NULL AND b > 100",
      "SELECT count(*) FROM nulls_t WHERE b > 100 OR b IS NULL",
      "SELECT a, b FROM nulls_t WHERE b > 100 AND a < 60",
  };
  for (const char* q : null_queries) {
    for (size_t bs : kBatchSizes) CheckRowVsVectorized(q, bs);
  }
}

// --- batch fallback accounting ---------------------------------------------

/// Flattens a profile tree into (op, fallback_rows) in pre-order.
void FlattenFallback(const OperatorProfile& p,
                     std::vector<std::pair<std::string, uint64_t>>* out) {
  out->emplace_back(p.op, p.stats.fallback_rows);
  for (const OperatorProfile& c : p.children) FlattenFallback(c, out);
}

TEST_F(VectorizedDifferentialTest, ConvertedOperatorsNeverFallBackAcrossCorpus) {
  // Every operator with a native batch implementation must process the whole
  // corpus through compiled kernels: zero rows through the row-loop adapter
  // or a compiled-tree FallbackNode, at every batch size and parallelism.
  const char* const converted[] = {"SeqScan", "Filter",    "Project",
                                   "HashJoin", "Sort",     "Aggregate"};
  for (const char* q : kDifferentialQueries) {
    for (size_t parallelism : {1u, 2u, 4u, 8u}) {
      db_.set_parallelism(parallelism);
      for (size_t bs : {size_t{7}, size_t{1024}}) {
        RunVectorized(q, bs);
        ASSERT_TRUE(db_.last_profile().valid) << q;
        std::vector<std::pair<std::string, uint64_t>> ops;
        FlattenFallback(db_.last_profile().root, &ops);
        for (const auto& [op, fallback] : ops) {
          for (const char* c : converted) {
            if (op == c) {
              EXPECT_EQ(fallback, 0u) << op << " fell back on: " << q << " @ parallelism "
                                      << parallelism << " batch_size " << bs;
            }
          }
        }
      }
      db_.set_parallelism(1);
    }
  }
}

TEST_F(VectorizedDifferentialTest, FallbackRowsSurfaceInProfileAndMetric) {
  // A non-equi self join has no hash/merge path; the nested-loop join keeps
  // its row implementation, so batch drive routes it through the counting
  // adapter: the per-operator profile and the engine-wide counter both move.
  const uint64_t before = EngineMetrics::Get().exec_batch_fallback_rows->value();
  RunVectorized(
      "SELECT e.id, e2.id FROM emp e, emp e2 "
      "WHERE e.id < 12 AND e2.id < 12 AND e.salary < e2.salary",
      64);
  ASSERT_TRUE(db_.last_profile().valid);
  std::vector<std::pair<std::string, uint64_t>> ops;
  FlattenFallback(db_.last_profile().root, &ops);
  uint64_t total_fallback = 0;
  for (const auto& [op, fallback] : ops) total_fallback += fallback;
  EXPECT_GT(total_fallback, 0u);
  EXPECT_GT(EngineMetrics::Get().exec_batch_fallback_rows->value(), before);
  // EXPLAIN ANALYZE renders the counter in both formats.
  EXPECT_NE(db_.last_profile().ToText().find("fallback="), std::string::npos);
  EXPECT_NE(db_.last_profile().ToJson().find("\"fallback_rows\":"), std::string::npos);
}

TEST_F(VectorizedDifferentialTest, SetVectorizedIsReversible) {
  const std::string q = "SELECT count(*) FROM emp";
  EXPECT_TRUE(db_.vectorized());  // on by default
  QueryResult vec = CheckedSql(&db_, q);
  db_.set_vectorized(false);
  EXPECT_FALSE(db_.vectorized());
  QueryResult row = CheckedSql(&db_, q);
  db_.set_vectorized(true);
  EXPECT_EQ(Canon(vec), Canon(row));
  db_.set_batch_size(0);  // clamps to 1
  EXPECT_EQ(db_.batch_size(), 1u);
  QueryResult one = CheckedSql(&db_, q);
  EXPECT_EQ(Canon(vec), Canon(one));
}

}  // namespace
}  // namespace relopt
