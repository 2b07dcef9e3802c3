// Serial-vs-parallel differential harness: every query must return the same
// bag of rows at parallelism 1 and parallelism N, fail with the same error
// when it fails, and keep EXPLAIN ANALYZE I/O attribution exact under
// concurrency.
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

// The corpus lives in differential_queries.h, shared with the row-vs-batch
// suite so both harnesses cover the same queries.
using tu::kAggregateQueries;
using tu::kDifferentialFailingQueries;
using tu::kDifferentialQueries;

class ParallelDifferentialTest : public ::testing::Test {
 protected:
  ParallelDifferentialTest() { tu::LoadDifferentialFixture(&db_); }

  void CheckSerialVsParallel(const std::string& sql, size_t parallelism) {
    db_.set_parallelism(1);
    QueryResult serial = CheckedSql(&db_, sql);
    db_.set_parallelism(parallelism);
    QueryResult parallel = CheckedSql(&db_, sql);
    db_.set_parallelism(1);
    EXPECT_EQ(ColumnNames(serial.schema), ColumnNames(parallel.schema)) << sql;
    EXPECT_EQ(Canon(serial), Canon(parallel)) << sql << " @ parallelism " << parallelism;
  }

  Database db_;
};

TEST_F(ParallelDifferentialTest, EveryQueryAgreesAtParallelism4) {
  for (const char* q : kDifferentialQueries) CheckSerialVsParallel(q, 4);
}

TEST_F(ParallelDifferentialTest, EveryQueryAgreesAtParallelism2And8) {
  for (const char* q : kDifferentialQueries) {
    CheckSerialVsParallel(q, 2);
    CheckSerialVsParallel(q, 8);
  }
}

TEST_F(ParallelDifferentialTest, OrderByStillSortedUnderParallelism) {
  // Bag equality is not enough for ORDER BY: the serial Sort above the
  // Gather must still deliver sorted output even though worker row order is
  // nondeterministic.
  db_.set_parallelism(4);
  QueryResult r = CheckedSql(&db_, "SELECT salary FROM emp ORDER BY salary DESC LIMIT 50");
  ASSERT_EQ(r.rows.size(), 50u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1].At(0).AsInt(), r.rows[i].At(0).AsInt());
  }
}

TEST_F(ParallelDifferentialTest, ErrorsAreIdenticalAcrossParallelism) {
  for (const char* q : kDifferentialFailingQueries) {
    db_.set_parallelism(1);
    Result<QueryResult> serial = CheckedExecute(&db_, q);
    db_.set_parallelism(4);
    Result<QueryResult> parallel = CheckedExecute(&db_, q);
    db_.set_parallelism(1);
    EXPECT_FALSE(serial.ok()) << q;
    EXPECT_FALSE(parallel.ok()) << q;
    EXPECT_EQ(serial.status().ToString(), parallel.status().ToString()) << q;
  }
}

TEST_F(ParallelDifferentialTest, RepeatedParallelExecutionIsStable) {
  const std::string q =
      "SELECT dept_id, count(*) FROM emp WHERE salary > 2000 GROUP BY dept_id ORDER BY dept_id";
  db_.set_parallelism(1);
  QueryResult reference = CheckedSql(&db_, q);
  db_.set_parallelism(4);
  for (int i = 0; i < 5; ++i) {
    QueryResult again = CheckedSql(&db_, q);
    EXPECT_EQ(Canon(reference), Canon(again));
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

TEST_F(ParallelDifferentialTest, ScanActuallyRunsOnAllWorkers) {
  db_.set_parallelism(4);
  CheckedSql(&db_, "SELECT count(*) FROM emp");
  const PlanProfile& profile = db_.last_profile();
  ASSERT_TRUE(profile.valid);
  const OperatorProfile* scan = FindOp(profile.root, "SeqScan");
  ASSERT_NE(scan, nullptr);
  // One SeqScan executor per worker registered against the SeqScan node;
  // merged stats show one Init per worker and the full row count.
  EXPECT_EQ(scan->stats.init_calls, 4u);
  EXPECT_EQ(scan->stats.rows_produced, 300u);
}

TEST_F(ParallelDifferentialTest, HashJoinRunsParallelAndCountsRowsOnce) {
  db_.set_parallelism(4);
  QueryResult r = CheckedSql(&db_,
                             "SELECT emp.name, dept.dname FROM emp, dept "
                             "WHERE emp.dept_id = dept.id");
  const PlanProfile& profile = db_.last_profile();
  ASSERT_TRUE(profile.valid);
  const OperatorProfile* join = FindOp(profile.root, "HashJoin");
  if (join != nullptr) {  // the optimizer is free to pick another join method
    EXPECT_EQ(join->stats.init_calls, 4u);
    EXPECT_EQ(join->stats.rows_produced, 300u);
  }
  EXPECT_EQ(r.rows.size(), 300u);
}

TEST_F(ParallelDifferentialTest, ExplainAnalyzeIoExactUnderParallelism) {
  const std::string q =
      "SELECT count(*), sum(emp.salary) FROM emp, dept WHERE emp.dept_id = dept.id";
  db_.set_parallelism(4);
  PhysicalPtr plan;
  {
    Result<PhysicalPtr> p = db_.PlanQuery(q);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    plan = p.MoveValue();
  }
  // Cold cache so worker scans do real page reads concurrently.
  ASSERT_OK(db_.pool()->FlushAll());
  ASSERT_OK(db_.pool()->EvictAll());
  Result<QueryResult> r = CheckedExecutePlan(&db_, *plan, q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const ExecutionMetrics& m = db_.last_metrics();
  const PlanProfile& profile = db_.last_profile();
  ASSERT_TRUE(profile.valid);
  EXPECT_GT(m.io.page_reads, 0u);
  // Attribution is thread-local and exclusive, so per-operator I/O must sum
  // exactly to the query totals at any parallelism.
  EXPECT_EQ(profile.Total().page_reads, m.io.page_reads);
  EXPECT_EQ(profile.Total().page_writes, m.io.page_writes);
}

// The full execution-mode matrix over the aggregate corpus: parallelism
// {1, 2, 4} x {batch 1, 7, 64, 1024}. Every combination must produce
// the same bag of rows as serial batch 1, emit each group exactly once
// (equal Aggregate-node rows_produced) and — on a cold cache — read
// exactly the same pages with exact per-operator attribution. A query that
// fails in serial batch 1 must fail with the identical error in every mode.
TEST_F(ParallelDifferentialTest, AggregateMatrixExactAcrossModes) {
  const size_t kParallelisms[] = {1, 2, 4};
  const size_t kBatchSizes[] = {1, 7, 64, 1024};
  for (const char* q : kAggregateQueries) {
    // Reference: serial batch 1, cold cache. Plan first so catalog reads
    // during planning don't pollute the execution I/O counts.
    db_.set_parallelism(1);
    db_.set_batch_size(1);
    PhysicalPtr ref_plan;
    {
      Result<PhysicalPtr> p = db_.PlanQuery(q);
      ASSERT_TRUE(p.ok()) << q << ": " << p.status().ToString();
      ref_plan = p.MoveValue();
    }
    ASSERT_OK(db_.pool()->FlushAll());
    ASSERT_OK(db_.pool()->EvictAll());
    Result<QueryResult> ref = CheckedExecutePlan(&db_, *ref_plan, q);
    if (!ref.ok()) {  // only the SUM-overflow query may fail
      ASSERT_NE(ref.status().ToString().find("integer overflow in SUM"), std::string::npos)
          << q << ": " << ref.status().ToString();
    }
    uint64_t ref_reads = 0;
    uint64_t ref_agg_rows = 0;
    if (ref.ok()) {
      ref_reads = db_.last_metrics().io.page_reads;
      const PlanProfile& profile = db_.last_profile();
      ASSERT_TRUE(profile.valid) << q;
      const OperatorProfile* agg = FindOp(profile.root, "Aggregate");
      ASSERT_NE(agg, nullptr) << q;
      ref_agg_rows = agg->stats.rows_produced;
    }

    for (size_t parallelism : kParallelisms) {
      for (size_t batch_size : kBatchSizes) {
        const std::string mode =
            std::string(q) + " @ parallelism " + std::to_string(parallelism) + ", batch " +
            std::to_string(batch_size);
        db_.set_parallelism(parallelism);
        db_.set_batch_size(batch_size);
        PhysicalPtr plan;
        {
          Result<PhysicalPtr> p = db_.PlanQuery(q);
          ASSERT_TRUE(p.ok()) << mode << ": " << p.status().ToString();
          plan = p.MoveValue();
        }
        ASSERT_OK(db_.pool()->FlushAll());
        ASSERT_OK(db_.pool()->EvictAll());
        Result<QueryResult> got = CheckedExecutePlan(&db_, *plan, q);
        if (!ref.ok()) {
          ASSERT_FALSE(got.ok()) << mode;
          EXPECT_EQ(got.status().ToString(), ref.status().ToString()) << mode;
          continue;
        }
        ASSERT_TRUE(got.ok()) << mode << ": " << got.status().ToString();
        EXPECT_EQ(Canon(*ref), Canon(*got)) << mode;

        const ExecutionMetrics& m = db_.last_metrics();
        const PlanProfile& profile = db_.last_profile();
        ASSERT_TRUE(profile.valid) << mode;
        // Same pages are touched no matter how the plan is driven or sliced,
        // and thread-local attribution sums exactly to the query totals.
        EXPECT_EQ(m.io.page_reads, ref_reads) << mode;
        EXPECT_EQ(profile.Total().page_reads, m.io.page_reads) << mode;
        EXPECT_EQ(profile.Total().page_writes, m.io.page_writes) << mode;
        const OperatorProfile* agg = FindOp(profile.root, "Aggregate");
        ASSERT_NE(agg, nullptr) << mode;
        // Partitions are disjoint, so across all workers each group is
        // emitted exactly once: merged rows_produced matches serial.
        EXPECT_EQ(agg->stats.rows_produced, ref_agg_rows) << mode;
      }
    }
    db_.set_parallelism(1);
    db_.set_batch_size(TupleBatch::kDefaultCapacity);
  }
}

TEST_F(ParallelDifferentialTest, SetParallelismIsReversible) {
  const std::string q = "SELECT count(*) FROM emp";
  db_.set_parallelism(4);
  EXPECT_EQ(db_.parallelism(), 4u);
  QueryResult at4 = CheckedSql(&db_, q);
  db_.set_parallelism(0);  // clamps to serial
  EXPECT_EQ(db_.parallelism(), 1u);
  QueryResult at1 = CheckedSql(&db_, q);
  EXPECT_EQ(Canon(at4), Canon(at1));
}

}  // namespace
}  // namespace relopt
