// Database: the top-level facade tying parser, binder, optimizer, executor,
// storage, and catalog together.
//
// A Database owns the shared engine state — storage, catalog, thread pool,
// plan cache, query history — and hands out Sessions (engine/session.h) for
// clients. The Database's own SQL entry points route through an implicit
// default session, so single-caller code keeps working unchanged; concurrent
// callers create one Session each via CreateSession().
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/plan_cache.h"
#include "engine/query_history.h"
#include "exec/executor_factory.h"
#include "exec/plan_profile.h"
#include "expr/binder.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_trace.h"
#include "parser/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/thread_pool.h"

namespace relopt {

class Session;

/// Per-session knobs. `optimizer.buffer_pages` is kept in sync with the real
/// buffer pool automatically. `buffer_pool_pages` applies only at Database
/// construction (the pool is shared engine state).
struct SessionOptions {
  size_t buffer_pool_pages = 256;
  OptimizerOptions optimizer;
  size_t analyze_buckets = 32;
  /// Rows per TupleBatch queries are driven with (Executor::NextBatch).
  /// Batch size 1 runs the same operators and kernels one row at a time.
  size_t batch_size = TupleBatch::kDefaultCapacity;
  /// Intra-query parallelism for this session's statements (1 = serial).
  size_t parallelism = 1;
  /// Cardinality feedback (LEO-style): harvest per-operator actuals after
  /// each successful SELECT into the Database's shared FeedbackStore and let
  /// them override the statistical estimates on the next optimization of a
  /// matching (table, conjuncts) or join signature. Off by default.
  bool cardinality_feedback = false;
};

/// A fully materialized query result.
struct QueryResult {
  Schema schema;
  std::vector<Tuple> rows;

  /// Pretty-printed table.
  std::string ToString() const;
};

/// \brief An embedded relational engine with a cost-based optimizer.
///
/// Thread-safety: the Database is safe to share across threads when each
/// thread drives its own Session (CreateSession). The Database's own SQL
/// methods route through the implicit default session, which — like every
/// Session — is single-threaded.
class Database {
 public:
  explicit Database(SessionOptions options = SessionOptions{});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- sessions -------------------------------------------------------------

  /// Opens a new session with the given options (defaults to the options the
  /// Database was constructed with). The returned Session is owned by the
  /// Database and lives until the Database is destroyed. Thread-safe.
  Session* CreateSession();
  Session* CreateSession(SessionOptions options);

  /// The implicit session behind Database::Execute and friends.
  Session* default_session() { return default_session_; }

  // --- SQL entry points (implicit default session) --------------------------

  /// Runs a script (semicolon-separated). Returns the result of the LAST
  /// statement that produces rows (SELECT/EXPLAIN), or an empty result.
  Result<QueryResult> Execute(const std::string& sql);

  /// EXPLAIN convenience: the optimized physical plan as text.
  Result<std::string> Explain(const std::string& select_sql);

  // --- programmatic API (benchmarks drive these directly) ------------------

  /// Parses + binds + optimizes one SELECT, without executing.
  Result<PhysicalPtr> PlanQuery(const std::string& select_sql, OptimizeInfo* info = nullptr);

  /// Binds one parsed SELECT into a logical plan.
  Result<LogicalPtr> BindQuery(const std::string& select_sql);

  /// Executes a physical plan to completion.
  Result<QueryResult> ExecutePlan(const PhysicalNode& plan);

  // --- components -----------------------------------------------------------
  Catalog* catalog() { return catalog_.get(); }
  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  /// The default session's options (per-session; see Session::options()).
  SessionOptions& options();

  /// The plan cache shared by every session (SELECT plans, keyed on
  /// normalized SQL + optimizer options + catalog version).
  PlanCache* plan_cache() { return &plan_cache_; }

  /// Counters of the default session's most recent statement or ExecutePlan
  /// (see Session::last_metrics).
  const ExecutionMetrics& last_metrics() const;

  /// Per-statement history of every session's statements (a bounded ring;
  /// also exposed through SELECT * FROM relopt_query_log()). Configure the
  /// slow-query log threshold via history()->set_slow_query_micros(us).
  QueryHistoryStore* history() { return &history_; }
  const QueryHistoryStore* history() const { return &history_; }

  /// Per-operator stats of the default session's most recent statement or
  /// ExecutePlan (see Session::last_profile).
  const PlanProfile& last_profile() const;

  /// When on, the default session traces every optimization (and bypasses
  /// the plan cache); EXPLAIN TRACE enables it for one statement.
  void set_trace_optimizer(bool on);
  /// Decision log of the default session's most recent traced optimization.
  const PlanTrace* last_trace() const;

  /// Sets the default session's intra-query parallelism degree. `n <= 1`
  /// means fully serial execution (the default); `n > 1` runs parallelizable
  /// plan subtrees as `n` worker fragments under a Gather. The backing
  /// thread pool is shared by all sessions and only ever grows.
  void set_parallelism(size_t n);
  size_t parallelism() const;

  /// Toggles the default session's cardinality feedback. The store itself is
  /// shared by all sessions; this only controls whether the default session
  /// consults and feeds it.
  void set_cardinality_feedback(bool on);
  bool cardinality_feedback() const;
  /// The cardinality-feedback store shared by every session (also exposed
  /// through SELECT * FROM relopt_feedback()).
  FeedbackStore* feedback() { return &feedback_; }
  const FeedbackStore* feedback() const { return &feedback_; }
  /// Default session's rows per batch (0 is taken as 1).
  void set_batch_size(size_t n);
  size_t batch_size() const;

  /// Zeroes disk + pool counters (benchmarks call between phases).
  void ResetCounters();

 private:
  friend class Session;
  friend class PreparedStatement;

  /// Grows the shared thread pool to at least `n` threads (no-op for n<=1 or
  /// when already big enough). Takes the statement lock exclusively, so it
  /// must not be called with a statement in flight on the calling thread.
  void EnsureThreadPool(size_t n);

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<ThreadPool> thread_pool_;
  PlanCache plan_cache_;
  QueryHistoryStore history_;
  FeedbackStore feedback_;

  /// Statement-level reader/writer lock: SELECT/EXPLAIN shared, DML/DDL/
  /// ANALYZE exclusive. See the concurrency model in engine/session.h.
  std::shared_mutex statement_mu_;

  mutable std::mutex sessions_mu_;  ///< guards sessions_, next_session_id_
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  SessionOptions default_options_;  ///< construction-time session defaults
  Session* default_session_ = nullptr;
};

}  // namespace relopt
