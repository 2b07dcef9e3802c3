// Multi-session concurrency: N sessions driving the differential corpus
// against one Database concurrently must reproduce the serial results
// exactly — same row bags, same errors, and the same deterministic
// per-statement metrics (rows, tuples processed, logical pool accesses),
// because per-statement attribution comes from each execution's own
// operators, never from global counter deltas another session could bleed
// into. Also: DDL/ANALYZE racing readers (plan-cache invalidation under
// load), and per-session query-history attribution.
//
// Run under TSan by scripts/check.sh.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "differential_queries.h"
#include "engine/plan_cache.h"
#include "engine/session.h"
#include "test_util.h"
#include "workload/queries.h"
#include "workload/serving.h"

namespace relopt {
namespace {

using tu::LoadDifferentialFixture;
using tu::Sql;
using tu::kDifferentialFailingQueries;
using tu::kDifferentialQueries;

std::vector<std::string> RenderedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Tuple& row : result.rows) {
    std::string s;
    for (size_t i = 0; i < row.NumValues(); ++i) {
      s += row.At(i).ToString();
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// What one statement execution must reproduce regardless of concurrency.
struct Observed {
  std::vector<std::string> rows;  ///< sorted rendered rows (empty on error)
  std::string status;             ///< "OK" or the error message
  uint64_t tuples_processed = 0;
  uint64_t pool_accesses = 0;     ///< logical accesses: hits + misses
};

Observed RunObserved(Session* session, const std::string& sql) {
  Observed out;
  Result<QueryResult> result = session->Execute(sql);
  if (result.ok()) {
    out.rows = RenderedRows(*result);
    out.status = "OK";
    out.tuples_processed = session->last_metrics().tuples_processed;
    out.pool_accesses = session->last_metrics().pool.hits + session->last_metrics().pool.misses;
  } else {
    out.status = result.status().ToString();
  }
  return out;
}

constexpr size_t kNumQueries = sizeof(kDifferentialQueries) / sizeof(kDifferentialQueries[0]);
constexpr size_t kNumFailing =
    sizeof(kDifferentialFailingQueries) / sizeof(kDifferentialFailingQueries[0]);

void RunConcurrentDifferential(size_t num_sessions) {
  Database db;
  LoadDifferentialFixture(&db);

  // Serial baseline on the default session.
  std::vector<Observed> baseline(kNumQueries);
  for (size_t q = 0; q < kNumQueries; ++q) {
    baseline[q] = RunObserved(db.default_session(), kDifferentialQueries[q]);
    ASSERT_EQ(baseline[q].status, "OK") << kDifferentialQueries[q];
  }
  std::vector<Observed> failing_baseline(kNumFailing);
  for (size_t q = 0; q < kNumFailing; ++q) {
    failing_baseline[q] = RunObserved(db.default_session(), kDifferentialFailingQueries[q]);
    ASSERT_NE(failing_baseline[q].status, "OK") << kDifferentialFailingQueries[q];
  }

  // N sessions run the whole corpus concurrently, each starting at its own
  // offset so different queries overlap in time.
  std::vector<Session*> sessions;
  for (size_t s = 0; s < num_sessions; ++s) sessions.push_back(db.CreateSession());
  std::vector<std::vector<Observed>> per_session(num_sessions,
                                                 std::vector<Observed>(kNumQueries));
  std::vector<std::vector<Observed>> per_session_failing(num_sessions,
                                                         std::vector<Observed>(kNumFailing));
  std::vector<std::thread> threads;
  for (size_t s = 0; s < num_sessions; ++s) {
    threads.emplace_back([&, s]() {
      for (size_t i = 0; i < kNumQueries; ++i) {
        const size_t q = (i + s * 7) % kNumQueries;
        per_session[s][q] = RunObserved(sessions[s], kDifferentialQueries[q]);
      }
      for (size_t q = 0; q < kNumFailing; ++q) {
        per_session_failing[s][q] = RunObserved(sessions[s], kDifferentialFailingQueries[q]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t s = 0; s < num_sessions; ++s) {
    for (size_t q = 0; q < kNumQueries; ++q) {
      const Observed& got = per_session[s][q];
      const Observed& want = baseline[q];
      ASSERT_EQ(got.status, "OK") << "session " << s << ": " << kDifferentialQueries[q];
      EXPECT_EQ(got.rows, want.rows) << "session " << s << ": " << kDifferentialQueries[q];
      EXPECT_EQ(got.tuples_processed, want.tuples_processed)
          << "session " << s << ": " << kDifferentialQueries[q];
      EXPECT_EQ(got.pool_accesses, want.pool_accesses)
          << "session " << s << " leaked another session's pool accesses into "
          << kDifferentialQueries[q];
    }
    for (size_t q = 0; q < kNumFailing; ++q) {
      EXPECT_EQ(per_session_failing[s][q].status, failing_baseline[q].status)
          << "session " << s << ": " << kDifferentialFailingQueries[q];
    }
  }
}

TEST(SessionConcurrencyTest, DifferentialTwoSessions) { RunConcurrentDifferential(2); }
TEST(SessionConcurrencyTest, DifferentialFourSessions) { RunConcurrentDifferential(4); }
TEST(SessionConcurrencyTest, DifferentialEightSessions) { RunConcurrentDifferential(8); }

// Sessions in different execution modes (batch 1/128 x serial/parallel) run
// concurrently and still agree with the serial batch-1 baseline.
TEST(SessionConcurrencyTest, MixedModeSessionsAgree) {
  Database db;
  LoadDifferentialFixture(&db);

  db.set_batch_size(1);
  std::vector<std::vector<std::string>> baseline(kNumQueries);
  for (size_t q = 0; q < kNumQueries; ++q) {
    baseline[q] = RenderedRows(Sql(&db, kDifferentialQueries[q]));
  }

  constexpr size_t kNumModes = 4;
  std::vector<Session*> sessions;
  for (size_t s = 0; s < kNumModes; ++s) {
    Session* session = db.CreateSession();
    session->set_batch_size(s % 2 == 1 ? 128 : 1);
    session->set_parallelism(s >= 2 ? 2 : 1);
    sessions.push_back(session);
  }
  std::vector<std::vector<std::vector<std::string>>> got(
      kNumModes, std::vector<std::vector<std::string>>(kNumQueries));
  std::vector<std::vector<std::string>> errors(kNumModes);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kNumModes; ++s) {
    threads.emplace_back([&, s]() {
      for (size_t i = 0; i < kNumQueries; ++i) {
        const size_t q = (i + s * 11) % kNumQueries;
        Result<QueryResult> r = sessions[s]->Execute(kDifferentialQueries[q]);
        if (r.ok()) {
          got[s][q] = RenderedRows(*r);
        } else {
          errors[s].push_back(std::string(kDifferentialQueries[q]) + " -> " +
                              r.status().ToString());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t s = 0; s < kNumModes; ++s) {
    ASSERT_TRUE(errors[s].empty()) << "mode " << s << ": " << errors[s][0];
    for (size_t q = 0; q < kNumQueries; ++q) {
      EXPECT_EQ(got[s][q], baseline[q]) << "mode " << s << ": " << kDifferentialQueries[q];
    }
  }
}

// Readers race DDL and ANALYZE: SELECTs must keep returning correct rows
// while CREATE/DROP/ANALYZE bump the catalog version and invalidate cached
// plans out from under them.
TEST(SessionConcurrencyTest, ReadersRaceDdlInvalidation) {
  Database db;
  LoadDifferentialFixture(&db);
  const std::vector<std::string> reads = {
      "SELECT count(*) FROM emp",
      "SELECT dept_id, count(*) FROM emp GROUP BY dept_id",
      "SELECT count(*) FROM emp, dept WHERE emp.dept_id = dept.id",
  };
  // Serial baseline: the rows each read must keep returning mid-DDL.
  std::vector<std::vector<std::string>> expected;
  for (const std::string& sql : reads) expected.push_back(RenderedRows(Sql(&db, sql)));

  constexpr size_t kReaders = 4;
  constexpr int kRounds = 25;
  std::vector<Session*> sessions;
  for (size_t s = 0; s < kReaders; ++s) sessions.push_back(db.CreateSession());
  std::vector<std::string> failures[kReaders];

  std::thread writer([&]() {
    Session* session = db.CreateSession();
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(session->Execute("CREATE TABLE scratch (x INT)").ok());
      ASSERT_TRUE(session->Execute("INSERT INTO scratch VALUES (1), (2)").ok());
      ASSERT_TRUE(session->Execute("ANALYZE scratch").ok());
      ASSERT_TRUE(session->Execute("DROP TABLE scratch").ok());
    }
  });
  std::vector<std::thread> readers;
  for (size_t s = 0; s < kReaders; ++s) {
    readers.emplace_back([&, s]() {
      for (int i = 0; i < kRounds; ++i) {
        for (size_t q = 0; q < reads.size(); ++q) {
          Result<QueryResult> r = sessions[s]->Execute(reads[q]);
          if (!r.ok()) {
            failures[s].push_back(r.status().ToString());
          } else if (RenderedRows(*r) != expected[q]) {
            failures[s].push_back(reads[q] + " -> wrong rows");
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  for (size_t s = 0; s < kReaders; ++s) {
    EXPECT_TRUE(failures[s].empty()) << "reader " << s << ": " << failures[s][0];
  }
  // The DDL churn actually exercised invalidation.
  EXPECT_GT(db.plan_cache()->stats().invalidations, 0u);
}

// Planning reads B+tree height and leaf counts from counters that Insert
// updates as it splits. Three sessions plan and run an indexed 4-way join
// while a fourth inserts 5,000 rows into one of its indexed tables, whose
// one-leaf tree splits leaves and its root; the inserted rows join nothing,
// so every result must equal the serial one.
TEST(SessionConcurrencyTest, PlanningRacesIndexSplits) {
  Database db;
  JoinWorkloadSpec spec;
  spec.num_relations = 4;
  spec.base_rows = 100;
  spec.growth = 1.5;
  spec.with_indexes = true;
  spec.prefix = "pr";
  Result<std::string> query = BuildJoinWorkload(&db, JoinTopology::kChain, spec);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const std::vector<std::string> expected = RenderedRows(Sql(&db, *query));
  Result<TableInfo*> table = db.catalog()->GetTable("pr1");
  ASSERT_TRUE(table.ok());
  ASSERT_FALSE((*table)->indexes().empty());
  BTree& tree = *(*table)->indexes()[0]->tree;
  ASSERT_EQ(tree.Height(), 1);

  constexpr size_t kReaders = 3;
  std::vector<Session*> sessions;
  for (size_t s = 0; s < kReaders; ++s) sessions.push_back(db.CreateSession());
  std::vector<std::string> failures[kReaders];
  std::thread writer([&]() {
    Session* session = db.CreateSession();
    for (int batch = 0; batch < 50; ++batch) {
      // ids far above every foreign key and a foreign key matching no id.
      std::string insert = "INSERT INTO pr1 VALUES ";
      for (int i = 0; i < 100; ++i) {
        insert += (i > 0 ? ", (" : "(") + std::to_string(1000000 + batch * 100 + i) + ", -1, 0)";
      }
      Result<QueryResult> r = session->Execute(insert);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  });
  std::vector<std::thread> readers;
  for (size_t s = 0; s < kReaders; ++s) {
    readers.emplace_back([&, s]() {
      for (int round = 0; round < 20; ++round) {
        Result<QueryResult> r = sessions[s]->Execute(*query);
        if (!r.ok()) {
          failures[s].push_back(r.status().ToString());
        } else if (RenderedRows(*r) != expected) {
          failures[s].push_back("wrong rows in round " + std::to_string(round));
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  for (size_t s = 0; s < kReaders; ++s) {
    EXPECT_TRUE(failures[s].empty()) << "reader " << s << ": " << failures[s][0];
  }
  EXPECT_EQ(RenderedRows(Sql(&db, *query)), expected);
  EXPECT_GE(tree.Height(), 2);
  EXPECT_GT(tree.NumLeafPages(), 10u);
  EXPECT_TRUE(tree.CheckIntegrity().ok());
}

// The serving workload harness end-to-end, small: cache-on and cache-off
// runs of the same deterministic workload must produce identical result
// checksums and zero errors, and the enabled cache must actually serve hits.
TEST(SessionConcurrencyTest, ServingWorkloadCacheOnOffAgree) {
  Database db;
  ASSERT_TRUE(LoadServingFixture(&db, /*emp_rows=*/200).ok());
  const std::vector<ServingQueryTemplate> mix = DefaultServingMix();
  ServingWorkloadOptions options;
  options.num_threads = 4;
  options.queries_per_thread = 30;

  db.plan_cache()->set_enabled(false);
  Result<ServingWorkloadResult> off = RunServingWorkload(&db, mix, options);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off->errors, 0u);
  EXPECT_EQ(off->cache_hits, 0u);

  db.plan_cache()->set_enabled(true);
  Result<ServingWorkloadResult> on = RunServingWorkload(&db, mix, options);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(on->errors, 0u);
  EXPECT_GT(on->cache_hits, 0u);
  EXPECT_EQ(on->result_checksum, off->result_checksum)
      << "caching must not change any result row";

  // Text mode (literals rendered into SQL, no prepared statements) returns
  // the same rows and shares the same text-keyed cache entries.
  options.use_prepared = false;
  Result<ServingWorkloadResult> text = RunServingWorkload(&db, mix, options);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->errors, 0u);
  EXPECT_EQ(text->result_checksum, off->result_checksum);
}

// Regression for the single-statement-in-flight assumption the pre-session
// QueryHistoryStore made: two sessions appending concurrently must each get
// records attributed to their own session id, carrying their own statement's
// row counts — not a blend of whatever was in flight.
TEST(SessionHistoryTest, TwoSessionsAttributeRecordsIndependently) {
  Database db;
  LoadDifferentialFixture(&db);
  db.history()->Clear();

  Session* s1 = db.CreateSession();
  Session* s2 = db.CreateSession();
  constexpr int kPerSession = 40;
  // Structurally different statements with different result cardinalities:
  // any cross-attribution shows up as a wrong rows_returned or session_id.
  const std::string sql1 = "SELECT id FROM emp WHERE id < 10";        // 10 rows
  const std::string sql2 = "SELECT id FROM dept WHERE id < 5";        // 5 rows

  // Serial pre-runs pin down the deterministic per-statement tuple counts
  // the concurrent records must reproduce exactly.
  ASSERT_TRUE(s1->Execute(sql1).ok());
  const uint64_t tuples1 = s1->last_metrics().tuples_processed;
  ASSERT_TRUE(s2->Execute(sql2).ok());
  const uint64_t tuples2 = s2->last_metrics().tuples_processed;
  db.history()->Clear();

  std::thread t1([&]() {
    for (int i = 0; i < kPerSession; ++i) ASSERT_TRUE(s1->Execute(sql1).ok());
  });
  std::thread t2([&]() {
    for (int i = 0; i < kPerSession; ++i) ASSERT_TRUE(s2->Execute(sql2).ok());
  });
  t1.join();
  t2.join();

  int s1_records = 0, s2_records = 0;
  for (const std::shared_ptr<const QueryRecord>& rec : db.history()->Snapshot()) {
    if (rec->session_id == s1->id()) {
      ++s1_records;
      EXPECT_NE(rec->sql.find("emp"), std::string::npos) << rec->sql;
      EXPECT_EQ(rec->rows_returned, 10u);
      EXPECT_EQ(rec->metrics.tuples_processed, tuples1);
    } else if (rec->session_id == s2->id()) {
      ++s2_records;
      EXPECT_NE(rec->sql.find("dept"), std::string::npos) << rec->sql;
      EXPECT_EQ(rec->rows_returned, 5u);
      EXPECT_EQ(rec->metrics.tuples_processed, tuples2);
    }
  }
  EXPECT_EQ(s1_records, kPerSession);
  EXPECT_EQ(s2_records, kPerSession);

  // The query-log table function carries the attribution through SQL.
  QueryResult log = Sql(&db, "SELECT session_id, rows FROM relopt_query_log()");
  int matching = 0;
  for (const Tuple& row : log.rows) {
    if (row.At(0).AsInt() == static_cast<int64_t>(s1->id())) {
      if (row.At(1).AsInt() == 10) ++matching;
    }
  }
  EXPECT_EQ(matching, kPerSession);
}

}  // namespace
}  // namespace relopt
