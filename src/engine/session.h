// Session: one client's connection to a shared Database.
//
// A Database owns the process-wide resources — disk, buffer pool, catalog,
// thread pool, query history, and the shared PlanCache — while each Session
// carries the per-client state: execution options (parallelism, batch size,
// optimizer knobs), prepared statements, the last statement's QueryRecord
// (metrics and profile) and the last optimizer trace.
//
// Concurrency model: a Session is single-threaded (one client), but any
// number of Sessions may execute against the same Database concurrently.
// Statements synchronize on the Database's statement lock: SELECT and
// EXPLAIN run under a shared lock (readers run concurrently), while DML,
// DDL, and ANALYZE take it exclusively (writers serialize, and never overlap
// a reader). Per-statement I/O metrics come from the execution's own
// per-operator attribution, not global counter deltas, so concurrent
// sessions never bleed into each other's numbers.
//
// Prepared statements: Session::Prepare parses once and retains the
// statement template; Execute(params) clones the template, replaces each
// positional `?` (ParameterExpr) with the supplied value, and runs the
// result through the normal statement path — so parameter type mismatches
// surface at bind time, and plan-cache keys incorporate the rendered
// parameter values.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"

namespace relopt {

class Session;

/// \brief A parsed, retained statement template with `?` placeholders.
/// Owned by the Session that prepared it; stable address for its lifetime.
class PreparedStatement {
 public:
  /// Executes with `params` bound positionally ($1 = params[0], ...).
  /// Errors if params.size() != num_parameters(). Each execution re-binds
  /// against the current catalog, so DDL between executions surfaces as a
  /// bind error (re-Prepare after changing the schema shape).
  Result<QueryResult> Execute(const std::vector<Value>& params = {});

  size_t num_parameters() const { return template_->num_parameters; }
  const std::string& sql() const { return sql_; }

 private:
  friend class Session;
  PreparedStatement(Session* session, std::string sql, StatementPtr template_stmt)
      : session_(session), sql_(std::move(sql)), template_(std::move(template_stmt)) {}

  Session* session_;
  std::string sql_;
  StatementPtr template_;
};

/// \brief One client's view of a Database. Create via Database::CreateSession.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  Database* database() { return db_; }

  // --- SQL entry points ---------------------------------------------------

  /// Runs a script (semicolon-separated); see Database::Execute.
  Result<QueryResult> Execute(const std::string& sql);

  /// The optimized physical plan as text.
  Result<std::string> Explain(const std::string& select_sql);

  /// Parses `sql` (one statement) into a reusable prepared statement with
  /// positional `?` parameters. The returned pointer is owned by this
  /// Session and valid for the Session's lifetime.
  Result<PreparedStatement*> Prepare(const std::string& sql);

  // --- programmatic API ----------------------------------------------------

  Result<PhysicalPtr> PlanQuery(const std::string& select_sql, OptimizeInfo* info = nullptr);
  Result<LogicalPtr> BindQuery(const std::string& select_sql);
  Result<QueryResult> ExecutePlan(const PhysicalNode& plan);

  // --- per-session options & introspection ---------------------------------

  SessionOptions& options() { return options_; }

  /// The most recent statement's (or ExecutePlan's) counters and profile,
  /// read from its QueryRecord. Valid until this session's next statement;
  /// the profile is empty (`valid` false) after a statement that ran no plan.
  const ExecutionMetrics& last_metrics() const { return record_->metrics; }
  const PlanProfile& last_profile() const { return record_->profile; }
  const PlanTrace* last_trace() const { return last_trace_.get(); }
  /// When on, every optimization records its decision log; also bypasses the
  /// plan cache (a cache hit runs no optimization to trace).
  void set_trace_optimizer(bool on) { trace_optimizer_ = on; }

  /// Intra-query parallelism for this session's statements. Grows the shared
  /// thread pool if needed (never shrinks it; other sessions may be using
  /// it). Do not call while this session has a statement in flight.
  void set_parallelism(size_t n);
  size_t parallelism() const { return options_.parallelism; }

  void set_batch_size(size_t n) { options_.batch_size = n == 0 ? 1 : n; }
  size_t batch_size() const { return options_.batch_size; }
  /// Cardinality feedback for this session (consults and feeds the shared
  /// Database store; see SessionOptions::cardinality_feedback).
  void set_cardinality_feedback(bool on) { options_.cardinality_feedback = on; }
  bool cardinality_feedback() const { return options_.cardinality_feedback; }

 private:
  friend class Database;
  friend class PreparedStatement;

  Session(Database* db, uint64_t id, SessionOptions options)
      : db_(db), id_(id), options_(std::move(options)) {}

  /// Locks (shared for SELECT/EXPLAIN, exclusive otherwise), runs, and
  /// records one statement. `cache_suffix`, when set, is appended to the
  /// plan-cache key (prepared statements encode their parameter values).
  Result<QueryResult> ExecuteStatement(Statement* stmt, bool* produced_rows,
                                       const std::string* cache_suffix);
  /// Dispatch on statement kind. Caller holds the statement lock.
  Result<QueryResult> RunStatement(Statement* stmt, bool* produced_rows,
                                   const std::string* cache_suffix);
  Result<QueryResult> RunSelect(SelectStmt* stmt, const std::string* cache_suffix);
  Result<std::string> RunExplain(ExplainStmt* stmt);
  /// Binds and optimizes a statement's query (a SELECT, an EXPLAIN's, or
  /// the one an UPDATE or DELETE runs), writing the optimize time and
  /// enumeration stats into the statement's record.
  Result<PhysicalPtr> PlanStatement(SelectStmt* select, bool want_trace);
  Status RunInsert(InsertStmt* stmt);
  /// UPDATE (with `assignments`) and DELETE (without): plans and runs the
  /// query that finds the rows and their new versions, then writes them.
  Status RunWrite(const std::string& table_name, ExprPtr where,
                  std::vector<std::pair<std::string, ExprPtr>>* assignments);
  /// Shared optimize step: syncs buffer_pages, wires up tracing.
  Result<PhysicalPtr> OptimizeLogical(LogicalPtr logical, OptimizeInfo* info, bool want_trace);
  /// Executes a plan into the current record. Caller holds the statement
  /// lock (ExecutePlan's public overload takes it shared). Per-statement I/O
  /// metrics are summed from the profile's per-operator attribution.
  Result<QueryResult> ExecutePlanInternal(const PhysicalNode& plan);
  /// Completes the current record and appends it to the query history.
  void RecordStatement(const Statement& stmt, const Status& status, uint64_t rows_returned,
                       uint64_t wall_nanos);

  Database* db_;
  const uint64_t id_;
  SessionOptions options_;
  /// The current (or most recent) statement's record. Each statement and
  /// ExecutePlan starts a fresh one; once RecordStatement appended it, the
  /// history shares it and nothing writes it again.
  std::shared_ptr<QueryRecord> record_ = std::make_shared<QueryRecord>();
  std::unique_ptr<PlanTrace> last_trace_;
  bool trace_optimizer_ = false;
  std::vector<std::unique_ptr<PreparedStatement>> prepared_;
};

}  // namespace relopt
