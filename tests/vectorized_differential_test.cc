// Batch-size differential harness: every query must return the same bag of
// rows at batch size 1 (one row per pull, the reference) and at any other
// batch size, fail with the same error when it fails, keep EXPLAIN ANALYZE
// row/page-I/O accounting identical, and compose with morsel-driven
// parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "differential_queries.h"
#include "exec/plan_profile.h"
#include "test_util.h"

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

  QueryResult RunBatch(const std::string& sql, size_t batch_size) {
    db_.set_batch_size(batch_size);
    return CheckedSql(&db_, sql);
  }

  void CheckAgainstBatchOne(const std::string& sql, size_t batch_size) {
    QueryResult one = RunBatch(sql, 1);
    QueryResult got = RunBatch(sql, batch_size);
    EXPECT_EQ(ColumnNames(one.schema), ColumnNames(got.schema)) << sql;
    EXPECT_EQ(Canon(one), Canon(got)) << sql << " @ batch_size " << batch_size;
  }

  Database db_;
};

TEST_F(VectorizedDifferentialTest, EveryQueryAgreesAtEveryBatchSize) {
  for (const char* q : kDifferentialQueries) {
    for (size_t bs : kBatchSizes) CheckAgainstBatchOne(q, bs);
  }
}

TEST_F(VectorizedDifferentialTest, ErrorsAreIdenticalAcrossModes) {
  for (const char* q : kDifferentialFailingQueries) {
    db_.set_batch_size(1);
    Result<QueryResult> one = CheckedExecute(&db_, q);
    for (size_t bs : kBatchSizes) {
      db_.set_batch_size(bs);
      Result<QueryResult> got = CheckedExecute(&db_, q);
      EXPECT_FALSE(one.ok()) << q;
      EXPECT_FALSE(got.ok()) << q;
      EXPECT_EQ(one.status().ToString(), got.status().ToString())
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
  // LIMIT queries are excluded: larger batches legitimately read ahead
  // below a LIMIT (a child fills a whole batch before the LIMIT truncates),
  // so per-operator row counts under LIMIT differ by design. Every fully
  // consumed plan must account identically to batch 1.
  for (const char* q : kDifferentialQueries) {
    if (std::string(q).find("LIMIT") != std::string::npos) continue;
    RunBatch(q, 1);
    ASSERT_TRUE(db_.last_profile().valid) << q;
    std::vector<std::pair<std::string, uint64_t>> one_rows;
    FlattenRows(db_.last_profile().root, &one_rows);

    for (size_t bs : kBatchSizes) {
      RunBatch(q, bs);
      ASSERT_TRUE(db_.last_profile().valid) << q;
      std::vector<std::pair<std::string, uint64_t>> got_rows;
      FlattenRows(db_.last_profile().root, &got_rows);
      EXPECT_EQ(one_rows, got_rows) << q << " @ batch_size " << bs;
    }
  }
}

TEST_F(VectorizedDifferentialTest, PageIoIdenticalColdCache) {
  // Every batch size pins one page at a time through the same view
  // iterators, so an identical cold-cache read count is a hard requirement —
  // larger batches save CPU, not I/O. (LIMIT read-ahead would break this, so
  // the corpus here is full-consumption queries.)
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

    db_.set_batch_size(1);
    ASSERT_OK(db_.pool()->FlushAll());
    ASSERT_OK(db_.pool()->EvictAll());
    Result<QueryResult> one = CheckedExecutePlan(&db_, *plan, q);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    uint64_t one_reads = db_.last_metrics().io.page_reads;
    uint64_t one_writes = db_.last_metrics().io.page_writes;
    ASSERT_TRUE(db_.last_profile().valid);
    uint64_t one_profile_reads = db_.last_profile().Total().page_reads;

    for (size_t bs : kBatchSizes) {
      db_.set_batch_size(bs);
      ASSERT_OK(db_.pool()->FlushAll());
      ASSERT_OK(db_.pool()->EvictAll());
      Result<QueryResult> vec = CheckedExecutePlan(&db_, *plan, q);
      ASSERT_TRUE(vec.ok()) << vec.status().ToString();
      EXPECT_EQ(db_.last_metrics().io.page_reads, one_reads) << q << " @ batch_size " << bs;
      EXPECT_EQ(db_.last_metrics().io.page_writes, one_writes) << q << " @ batch_size " << bs;
      // Per-operator attribution still sums exactly to the query totals.
      ASSERT_TRUE(db_.last_profile().valid);
      EXPECT_EQ(db_.last_profile().Total().page_reads, db_.last_metrics().io.page_reads) << q;
      EXPECT_EQ(db_.last_profile().Total().page_reads, one_profile_reads) << q;
    }
  }
}

TEST_F(VectorizedDifferentialTest, ComposesWithParallelism) {
  // Batches + morsel parallelism stacked: workers drive their fragments
  // through NextBatch and the Gather adopts whole batches. Reference is
  // serial batch 1.
  for (const char* q : kDifferentialQueries) {
    QueryResult reference = RunBatch(q, 1);
    for (size_t parallelism : {2u, 4u}) {
      db_.set_parallelism(parallelism);
      for (size_t bs : {size_t{7}, size_t{1024}}) {
        QueryResult got = RunBatch(q, bs);
        EXPECT_EQ(Canon(reference), Canon(got))
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
  // One SeqScan executor per worker; merged stats still show one Init per
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
    QueryResult r = RunBatch("SELECT id FROM emp WHERE id < 0", bs);
    EXPECT_TRUE(r.rows.empty());
  }
  CheckAgainstBatchOne("SELECT id FROM emp WHERE id < 0", 7);
}

TEST_F(VectorizedDifferentialTest, EmptyTableProducesNoBatches) {
  for (size_t bs : kBatchSizes) {
    QueryResult r = RunBatch("SELECT * FROM empty_t", bs);
    EXPECT_TRUE(r.rows.empty());
  }
}

TEST_F(VectorizedDifferentialTest, LimitExactlyAtBatchBoundary) {
  // LIMIT == batch size: the truncation path runs with zero rows to cut and
  // the next NextBatch call must return false without touching the child.
  for (int64_t limit : {5, 50, 300}) {
    std::string q = "SELECT id FROM emp LIMIT " + std::to_string(limit);
    QueryResult one = RunBatch(q, 1);
    // Batch size equal to, just below, and just above the limit.
    for (size_t bs :
         {static_cast<size_t>(limit), static_cast<size_t>(limit) - 1,
          static_cast<size_t>(limit) + 1}) {
      if (bs == 0) continue;
      QueryResult got = RunBatch(q, bs);
      EXPECT_EQ(one.rows.size(), got.rows.size()) << q << " @ batch_size " << bs;
      EXPECT_EQ(Canon(one), Canon(got)) << q << " @ batch_size " << bs;
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
    for (size_t bs : kBatchSizes) CheckAgainstBatchOne(q, bs);
  }
}

TEST_F(VectorizedDifferentialTest, BatchSizeZeroClampsToOne) {
  const std::string q = "SELECT count(*) FROM emp";
  QueryResult standard = CheckedSql(&db_, q);
  db_.set_batch_size(0);  // clamps to 1
  EXPECT_EQ(db_.batch_size(), 1u);
  QueryResult one = CheckedSql(&db_, q);
  EXPECT_EQ(Canon(standard), Canon(one));
}

}  // namespace
}  // namespace relopt
