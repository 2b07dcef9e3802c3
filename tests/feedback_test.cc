// Cardinality feedback: signature normalization, store semantics, engine
// integration (harvest, override, plan-cache re-optimization, invalidation),
// and the headline acceptance case — a correlated-predicate join whose plan
// flips to a strictly cheaper one once actuals flow back.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "engine/session.h"
#include "optimizer/feedback.h"
#include "parser/parser.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace relopt {
namespace {

// --- signature construction --------------------------------------------------

ExprPtr ParseWhere(const std::string& pred_sql) {
  Result<StatementPtr> stmt = ParseStatement("SELECT 1 FROM t WHERE " + pred_sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::move(static_cast<SelectStmt*>(stmt->get())->where);
}

TEST(FeedbackSignature, ScanSignatureSortsAndLowercases) {
  std::string a = FeedbackStore::ScanSignature("Emp", {"a < 10", "b = 3"});
  std::string b = FeedbackStore::ScanSignature("emp", {"b = 3", "a < 10"});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "s|emp|a < 10 AND b = 3");
}

TEST(FeedbackSignature, RenderConjunctStripsQualifiers) {
  ExprPtr e = ParseWhere("T.K < 10");
  EXPECT_EQ(FeedbackStore::RenderConjunct(*e, /*strip_qualifiers=*/true), "(k < 10)");
  // Unstripped keeps the (lowercased) qualifier.
  EXPECT_EQ(FeedbackStore::RenderConjunct(*e, /*strip_qualifiers=*/false), "(t.k < 10)");
}

TEST(FeedbackSignature, RenderConjunctPreservesLiteralCase) {
  ExprPtr e = ParseWhere("Name = 'Alice'");
  std::string sig = FeedbackStore::RenderConjunct(*e, true);
  EXPECT_NE(sig.find("'Alice'"), std::string::npos) << sig;
  // Different literals must never share a signature.
  ExprPtr e2 = ParseWhere("Name = 'alice'");
  EXPECT_NE(sig, FeedbackStore::RenderConjunct(*e2, true));
}

TEST(FeedbackSignature, JoinSignatureOrderInsensitive) {
  std::string a = FeedbackStore::JoinSignature({"e:emp", "d:dept"}, {"d.id=e.dept_id"}, {});
  std::string b = FeedbackStore::JoinSignature({"d:dept", "e:emp"}, {"d.id=e.dept_id"}, {});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "j|d:dept,e:emp|d.id=e.dept_id|");
}

// --- store semantics ---------------------------------------------------------

TEST(FeedbackStoreTest, RecordLookupRoundTrip) {
  FeedbackStore store;
  EXPECT_FALSE(store.LookupScanRows("s|t|k < 10").has_value());
  store.RecordScanRows("s|t|k < 10", {"t"}, 42.0);
  std::optional<double> v = store.LookupScanRows("s|t|k < 10");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 42.0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(FeedbackStoreTest, VersionBumpsOnlyOnMaterialChange) {
  FeedbackStore store;
  uint64_t v0 = store.version();
  store.RecordScanRows("s|t|", {"t"}, 1000.0);
  uint64_t v1 = store.version();
  EXPECT_GT(v1, v0);  // fresh entry always bumps

  store.RecordScanRows("s|t|", {"t"}, 1000.0);  // identical: no bump
  EXPECT_EQ(store.version(), v1);
  store.RecordScanRows("s|t|", {"t"}, 1005.0);  // 0.5% drift: below threshold
  EXPECT_EQ(store.version(), v1);
  store.RecordScanRows("s|t|", {"t"}, 1200.0);  // 20%: material
  EXPECT_GT(store.version(), v1);
}

TEST(FeedbackStoreTest, ClearAndInvalidateTable) {
  FeedbackStore store;
  store.RecordScanRows("s|emp|a < 10", {"emp"}, 5.0);
  store.RecordScanRows("s|dept|", {"dept"}, 20.0);
  store.RecordJoinSelectivity("j|d:dept,e:emp|d.id=e.dept_id|", {"dept", "emp"}, 0.05);
  ASSERT_EQ(store.size(), 3u);

  // DML on emp drops the emp scan AND the join touching emp, not dept's.
  uint64_t v_before = store.version();
  EXPECT_EQ(store.InvalidateTable("EMP"), 2u);  // case-insensitive
  EXPECT_EQ(store.size(), 1u);
  EXPECT_GT(store.version(), v_before);
  EXPECT_TRUE(store.LookupScanRows("s|dept|").has_value());

  // Invalidating an untouched table is a no-op (and no version bump).
  uint64_t v_mid = store.version();
  EXPECT_EQ(store.InvalidateTable("nosuch"), 0u);
  EXPECT_EQ(store.version(), v_mid);

  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GT(store.version(), v_mid);
}

TEST(FeedbackStoreTest, SnapshotClassifiesKinds) {
  FeedbackStore store;
  store.RecordScanRows("s|emp|a < 10", {"emp"}, 5.0);
  store.RecordJoinSelectivity("j|d:dept,e:emp|d.id=e.dept_id|", {"dept", "emp"}, 0.05);
  std::vector<FeedbackStore::EntryInfo> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, "join");
  EXPECT_EQ(snap[0].tables, "dept,emp");
  EXPECT_EQ(snap[1].kind, "scan");
  EXPECT_EQ(snap[1].tables, "emp");
}

// --- engine integration ------------------------------------------------------

class FeedbackEngineTest : public ::testing::Test {
 protected:
  FeedbackEngineTest() { tu::LoadEmpDept(&db_); }
  Database db_;
};

TEST_F(FeedbackEngineTest, OffByDefaultHarvestsNothing) {
  tu::Sql(&db_, "SELECT count(*) FROM emp WHERE salary > 3000");
  EXPECT_EQ(db_.feedback()->size(), 0u);
}

TEST_F(FeedbackEngineTest, HarvestsScanAndJoinActuals) {
  db_.set_cardinality_feedback(true);
  tu::Sql(&db_,
          "SELECT count(*) FROM emp e, dept d WHERE e.dept_id = d.id AND e.salary > 3000");
  EXPECT_GT(db_.feedback()->size(), 0u);
  // Both kinds of entries exist, and the scan actual is the true row count.
  bool saw_scan = false, saw_join = false;
  for (const FeedbackStore::EntryInfo& e : db_.feedback()->Snapshot()) {
    if (e.kind == "scan") saw_scan = true;
    if (e.kind == "join") {
      saw_join = true;
      EXPECT_GT(e.value, 0.0);
      EXPECT_LE(e.value, 1.0);
    }
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_join);
}

TEST_F(FeedbackEngineTest, LimitQueriesDoNotPoisonTheStore) {
  db_.set_cardinality_feedback(true);
  tu::Sql(&db_, "SELECT id FROM emp WHERE salary > 3000 LIMIT 3");
  EXPECT_EQ(db_.feedback()->size(), 0u);
}

TEST_F(FeedbackEngineTest, SecondRunUsesObservedCardinality) {
  db_.set_cardinality_feedback(true);
  const std::string q = "SELECT id FROM emp WHERE salary > 3000";
  QueryResult r1 = tu::Sql(&db_, q);
  const double truth = static_cast<double>(r1.rows.size());
  ASSERT_GT(truth, 0);
  tu::Sql(&db_, q);
  // After the second optimization the plan's estimate IS the observation.
  EXPECT_NEAR(db_.last_profile().root.est_rows, truth, std::max(1.0, truth * 0.01));
}

TEST_F(FeedbackEngineTest, PlanCacheReoptimizesAfterFeedbackUpdate) {
  db_.set_cardinality_feedback(true);
  const std::string q = "SELECT count(*) FROM emp WHERE salary > 3000";
  tu::Sql(&db_, q);
  EXPECT_FALSE(db_.last_metrics().plan_cache_hit);  // cold: miss, optimize
  tu::Sql(&db_, q);
  // The harvest bumped the store version, so the cached plan (keyed on the
  // old version) is provably NOT replayed: the statement re-optimizes.
  EXPECT_FALSE(db_.last_metrics().plan_cache_hit);
  tu::Sql(&db_, q);
  // Converged: the re-recorded actuals match the stored values, the version
  // holds still, and the plan cache serves the re-optimized plan.
  EXPECT_TRUE(db_.last_metrics().plan_cache_hit);
}

TEST_F(FeedbackEngineTest, AnalyzeAndDdlClearTheStore) {
  db_.set_cardinality_feedback(true);
  tu::Sql(&db_, "SELECT count(*) FROM emp WHERE salary > 3000");
  ASSERT_GT(db_.feedback()->size(), 0u);
  tu::Sql(&db_, "ANALYZE");
  EXPECT_EQ(db_.feedback()->size(), 0u);

  tu::Sql(&db_, "SELECT count(*) FROM emp WHERE salary > 3000");
  ASSERT_GT(db_.feedback()->size(), 0u);
  tu::Sql(&db_, "CREATE TABLE scratch (x INT)");
  EXPECT_EQ(db_.feedback()->size(), 0u);
}

TEST_F(FeedbackEngineTest, DmlInvalidatesOnlyTheWrittenTable) {
  db_.set_cardinality_feedback(true);
  tu::Sql(&db_, "SELECT count(*) FROM dept WHERE id < 5");
  // UPDATE and DELETE plan their own scan of emp, whose observations the
  // write then drops with the rest.
  for (const char* dml : {"INSERT INTO emp VALUES (9999, 'x', 0, 100)",
                          "UPDATE emp SET salary = salary + 1 WHERE id < 10",
                          "DELETE FROM emp WHERE id = 9999"}) {
    tu::Sql(&db_, "SELECT count(*) FROM emp WHERE salary > 3000");
    ASSERT_GE(db_.feedback()->size(), 2u) << dml;
    tu::Sql(&db_, dml);
    bool emp_left = false, dept_left = false;
    for (const FeedbackStore::EntryInfo& e : db_.feedback()->Snapshot()) {
      if (e.tables.find("emp") != std::string::npos) emp_left = true;
      if (e.tables.find("dept") != std::string::npos) dept_left = true;
    }
    EXPECT_FALSE(emp_left) << dml;
    EXPECT_TRUE(dept_left) << dml;
  }
}

TEST_F(FeedbackEngineTest, FeedbackTableFunctionExposesEntries) {
  db_.set_cardinality_feedback(true);
  tu::Sql(&db_, "SELECT count(*) FROM emp WHERE salary > 3000");
  QueryResult r = tu::Sql(&db_, "SELECT kind, tables, signature, value FROM relopt_feedback()");
  ASSERT_GT(r.rows.size(), 0u);
  EXPECT_EQ(r.rows[0].At(0).AsString(), "scan");
  EXPECT_EQ(r.rows[0].At(1).AsString(), "emp");
  // Filters over the function compose like any scan.
  QueryResult scans =
      tu::Sql(&db_, "SELECT count(*) FROM relopt_feedback() WHERE kind = 'scan'");
  EXPECT_GT(tu::IntCell(scans), 0);
}

TEST_F(FeedbackEngineTest, SimpliSquaredAlgorithmRuns) {
  // The estimate-free baseline orders by base-table size only; it must still
  // produce correct results through the normal executor.
  QueryResult expected = tu::Sql(
      &db_, "SELECT count(*) FROM emp e, dept d WHERE e.dept_id = d.id AND d.id < 5");
  db_.options().optimizer.join.algorithm = JoinEnumAlgorithm::kSimpliSquared;
  QueryResult got = tu::Sql(
      &db_, "SELECT count(*) FROM emp e, dept d WHERE e.dept_id = d.id AND d.id < 5");
  EXPECT_EQ(tu::IntCell(got), tu::IntCell(expected));
  EXPECT_STREQ(JoinEnumAlgorithmToString(JoinEnumAlgorithm::kSimpliSquared), "simpli2");
}

// The store is shared across sessions: concurrent feedback-on readers must
// race safely (TSan exercises this via the |Feedback test filter).
TEST_F(FeedbackEngineTest, FeedbackConcurrentSessionsAgree) {
  const std::string q =
      "SELECT count(*) FROM emp e, dept d WHERE e.dept_id = d.id AND e.salary > 3000";
  int64_t expected = tu::IntCell(tu::Sql(&db_, q));
  constexpr int kThreads = 4;
  std::vector<Session*> sessions;
  for (int i = 0; i < kThreads; ++i) {
    Session* s = db_.CreateSession();
    s->set_cardinality_feedback(true);
    sessions.push_back(s);
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() {
      for (int round = 0; round < 5; ++round) {
        Result<QueryResult> r = sessions[i]->Execute(q);
        if (!r.ok() || r->rows.size() != 1 || r->rows[0].At(0).AsInt() != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(db_.feedback()->size(), 0u);
}

// --- the acceptance case -----------------------------------------------------
//
// fact(a, b, c, k): a = b = c = i % 100, perfectly correlated. Under the
// independence assumption `a<20 AND b<20 AND c<20` estimates 0.2^3 = 0.008
// (160 rows); the truth is 0.2 (4000 rows). big(id, pad) is wider than the
// buffer pool with an index on id, so the estimate-picked index-nested-loop
// join thrashes the pool with 4000 random probes. Once the fact-scan actual
// feeds back, the re-optimized plan must be strictly cheaper in page reads.
class FeedbackPlanFlipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tu::Sql(&db_, "CREATE TABLE fact (a INT, b INT, c INT, k INT)");
    for (int base = 0; base < 20000; base += 1000) {
      std::string insert = "INSERT INTO fact VALUES ";
      for (int i = base; i < base + 1000; ++i) {
        if (i > base) insert += ", ";
        int v = i % 100;
        insert += "(" + std::to_string(v) + ", " + std::to_string(v) + ", " + std::to_string(v) +
                  ", " + std::to_string((i * 7919) % 20000) + ")";
      }
      tu::Sql(&db_, insert);
    }
    TableSpec big;
    big.name = "big";
    big.num_rows = 20000;
    ColumnSpec pad = ColumnSpec::Serial("id");
    ColumnSpec padcol;
    padcol.name = "pad";
    padcol.type = TypeId::kString;
    padcol.dist = ColumnDist::kRandomString;
    padcol.string_length = 100;
    big.columns = {pad, padcol};
    big.sort_by = "id";
    ASSERT_OK(GenerateTable(&db_, big));
    tu::Sql(&db_, "CREATE INDEX big_id ON big (id)");
    tu::Sql(&db_, "ANALYZE");
  }

  Database db_;
  const std::string query_ =
      "SELECT count(*) FROM fact, big "
      "WHERE fact.k = big.id AND fact.a < 20 AND fact.b < 20 AND fact.c < 20";
};

TEST_F(FeedbackPlanFlipTest, FeedbackImprovesCorrelatedJoinPlan) {
  db_.set_cardinality_feedback(true);

  // The estimate-picked plan, before any observation exists.
  Result<std::string> plan_before = db_.Explain(query_);
  ASSERT_TRUE(plan_before.ok());

  QueryResult r1 = tu::Sql(&db_, query_);
  int64_t truth = tu::IntCell(r1);
  ASSERT_EQ(truth, 4000);
  uint64_t reads_before = db_.last_metrics().io.page_reads;

  QueryResult r2 = tu::Sql(&db_, query_);
  EXPECT_EQ(tu::IntCell(r2), truth);  // feedback never changes results
  uint64_t reads_after = db_.last_metrics().io.page_reads;
  Result<std::string> plan_after = db_.Explain(query_);
  ASSERT_TRUE(plan_after.ok());

  // The plan changed, and the measured cost dropped strictly.
  EXPECT_NE(*plan_before, *plan_after);
  EXPECT_LT(reads_after, reads_before)
      << "before:\n" << *plan_before << "after:\n" << *plan_after;
}

// The adhoc_joins shape ra6t (random graph, 6 relations, no indexes): its
// cold plan never starts one nested-loop inner and rescans another once per
// outer row. Feedback must learn only true cardinalities from that, so after
// every run each scan entry equals a separate count of its filtered scan, and
// no warm run fetches more than twice the cold run's pages.
TEST(FeedbackHarvestTest, ScanEntriesStayTrueCountsAcrossRuns) {
  Database db;
  JoinWorkloadSpec spec;
  spec.num_relations = 6;
  spec.base_rows = 100;
  spec.dim_rows = 50;
  spec.growth = 1.6;
  spec.seed = 7006;
  spec.prefix = "ra6t";
  Result<std::string> sql = BuildJoinWorkload(&db, JoinTopology::kRandom, spec);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  const std::string head = "SELECT count(*)";
  ASSERT_EQ(sql->rfind(head, 0), 0u);
  const std::string query =
      "SELECT count(*), sum(ra6t0.val)" + sql->substr(head.size()) + " AND ra6t0.val < 400";
  Session* counter = db.CreateSession();  // feedback off: leaves the store alone
  db.set_cardinality_feedback(true);

  uint64_t cold_fetches = 0;
  for (int run = 1; run <= 8; ++run) {
    tu::Sql(&db, query);
    const uint64_t fetches = db.last_metrics().pool.hits + db.last_metrics().pool.misses;
    if (run == 1) cold_fetches = fetches;
    EXPECT_LE(fetches, 2 * cold_fetches) << "run " << run;
    for (const FeedbackStore::EntryInfo& e : db.feedback()->Snapshot()) {
      if (e.kind != "scan") continue;
      // "s|<table>|<conjuncts>" names the scan to count.
      const size_t bar = e.signature.find('|', 2);
      std::string count_sql = "SELECT count(*) FROM " + e.signature.substr(2, bar - 2);
      if (bar + 1 < e.signature.size()) count_sql += " WHERE " + e.signature.substr(bar + 1);
      Result<QueryResult> count = counter->Execute(count_sql);
      ASSERT_TRUE(count.ok()) << count_sql << " -> " << count.status().ToString();
      EXPECT_EQ(e.value, static_cast<double>(tu::IntCell(*count)))
          << e.signature << " after run " << run;
    }
  }
}

// The workers of a parallel fragment share one pass of each scan, so the
// harvest must count them as one loop, not one loop per worker.
TEST(FeedbackHarvestTest, ParallelWorkersRecordOnePass) {
  Database db;
  tu::LoadEmpDept(&db);
  Session* counter = db.CreateSession();  // serial, feedback off
  db.set_parallelism(4);
  db.set_cardinality_feedback(true);
  tu::Sql(&db, "SELECT dept_id, count(*) FROM emp WHERE salary > 3000 GROUP BY dept_id");
  std::function<uint64_t(const OperatorProfile&)> max_executors = [&](const OperatorProfile& p) {
    uint64_t most = p.executors;
    for (const OperatorProfile& c : p.children) most = std::max(most, max_executors(c));
    return most;
  };
  ASSERT_EQ(max_executors(db.last_profile().root), 4u);  // the scan ran in 4 workers
  Result<QueryResult> count = counter->Execute("SELECT count(*) FROM emp WHERE salary > 3000");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  const int64_t rows = tu::IntCell(*count);
  bool saw_scan = false;
  for (const FeedbackStore::EntryInfo& e : db.feedback()->Snapshot()) {
    if (e.kind != "scan") continue;
    saw_scan = true;
    EXPECT_EQ(e.value, static_cast<double>(rows)) << e.signature;
  }
  EXPECT_TRUE(saw_scan);
}

}  // namespace
}  // namespace relopt
