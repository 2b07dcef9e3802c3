#include "engine/session.h"

#include <algorithm>
#include <bit>
#include <shared_mutex>

#include "expr/fold.h"
#include "expr/vector_eval.h"
#include "util/metrics.h"
#include "util/str_util.h"
#include "util/timer.h"

namespace relopt {

namespace {

const char* StatementVerb(StatementKind kind) {
  switch (kind) {
    case StatementKind::kCreateTable: return "create_table";
    case StatementKind::kCreateIndex: return "create_index";
    case StatementKind::kDropTable: return "drop_table";
    case StatementKind::kInsert: return "insert";
    case StatementKind::kSelect: return "select";
    case StatementKind::kExplain: return "explain";
    case StatementKind::kAnalyze: return "analyze";
    case StatementKind::kDelete: return "delete";
    case StatementKind::kUpdate: return "update";
  }
  return "unknown";
}

bool IsReadStatement(StatementKind kind) {
  return kind == StatementKind::kSelect || kind == StatementKind::kExplain;
}

bool InvalidatesPlans(StatementKind kind) {
  // Schema changes and new statistics both retire cached plans.
  return kind == StatementKind::kCreateTable || kind == StatementKind::kCreateIndex ||
         kind == StatementKind::kDropTable || kind == StatementKind::kAnalyze;
}

// --- statement cloning (prepared statements re-execute from a template) -----
//
// Execution is destructive (RunInsert folds VALUES expressions in place;
// binding mutates expression trees), so every prepared execution runs
// against a deep copy of the parsed template.

ExprPtr CloneExpr(const ExprPtr& e) { return e == nullptr ? nullptr : e->Clone(); }

StatementPtr CloneStatement(const Statement& stmt);

std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& s) {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = s.distinct;
  for (const SelectItem& item : s.items) {
    SelectItem copy;
    copy.expr = CloneExpr(item.expr);
    copy.alias = item.alias;
    copy.is_star = item.is_star;
    out->items.push_back(std::move(copy));
  }
  out->from = s.from;
  out->where = CloneExpr(s.where);
  for (const ExprPtr& g : s.group_by) out->group_by.push_back(CloneExpr(g));
  out->having = CloneExpr(s.having);
  for (const OrderByItem& o : s.order_by) {
    OrderByItem copy;
    copy.expr = CloneExpr(o.expr);
    copy.desc = o.desc;
    out->order_by.push_back(std::move(copy));
  }
  out->limit = s.limit;
  return out;
}

StatementPtr CloneStatement(const Statement& stmt) {
  StatementPtr out;
  switch (stmt.kind) {
    case StatementKind::kCreateTable:
      out = std::make_unique<CreateTableStmt>(static_cast<const CreateTableStmt&>(stmt));
      break;
    case StatementKind::kCreateIndex:
      out = std::make_unique<CreateIndexStmt>(static_cast<const CreateIndexStmt&>(stmt));
      break;
    case StatementKind::kDropTable:
      out = std::make_unique<DropTableStmt>(static_cast<const DropTableStmt&>(stmt));
      break;
    case StatementKind::kAnalyze:
      out = std::make_unique<AnalyzeStmt>(static_cast<const AnalyzeStmt&>(stmt));
      break;
    case StatementKind::kInsert: {
      const auto& s = static_cast<const InsertStmt&>(stmt);
      auto copy = std::make_unique<InsertStmt>();
      copy->table_name = s.table_name;
      copy->columns = s.columns;
      for (const std::vector<ExprPtr>& row : s.rows) {
        std::vector<ExprPtr> row_copy;
        for (const ExprPtr& e : row) row_copy.push_back(CloneExpr(e));
        copy->rows.push_back(std::move(row_copy));
      }
      out = std::move(copy);
      break;
    }
    case StatementKind::kSelect:
      out = CloneSelect(static_cast<const SelectStmt&>(stmt));
      break;
    case StatementKind::kExplain: {
      const auto& s = static_cast<const ExplainStmt&>(stmt);
      auto copy = std::make_unique<ExplainStmt>();
      copy->inner = CloneStatement(*s.inner);
      copy->analyze = s.analyze;
      copy->trace = s.trace;
      out = std::move(copy);
      break;
    }
    case StatementKind::kDelete: {
      const auto& s = static_cast<const DeleteStmt&>(stmt);
      auto copy = std::make_unique<DeleteStmt>();
      copy->table_name = s.table_name;
      copy->where = CloneExpr(s.where);
      out = std::move(copy);
      break;
    }
    case StatementKind::kUpdate: {
      const auto& s = static_cast<const UpdateStmt&>(stmt);
      auto copy = std::make_unique<UpdateStmt>();
      copy->table_name = s.table_name;
      for (const auto& [name, expr] : s.assignments) {
        copy->assignments.emplace_back(name, CloneExpr(expr));
      }
      copy->where = CloneExpr(s.where);
      out = std::move(copy);
      break;
    }
  }
  out->text = stmt.text;
  out->num_parameters = stmt.num_parameters;
  return out;
}

/// Appends the owning slots of every ParameterExpr in the statement.
void CollectStatementParameterSlots(Statement* stmt, std::vector<ExprPtr*>* out) {
  switch (stmt->kind) {
    case StatementKind::kSelect: {
      auto* s = static_cast<SelectStmt*>(stmt);
      for (SelectItem& item : s->items) CollectParameterSlots(&item.expr, out);
      CollectParameterSlots(&s->where, out);
      for (ExprPtr& g : s->group_by) CollectParameterSlots(&g, out);
      CollectParameterSlots(&s->having, out);
      for (OrderByItem& o : s->order_by) CollectParameterSlots(&o.expr, out);
      break;
    }
    case StatementKind::kInsert: {
      auto* s = static_cast<InsertStmt*>(stmt);
      for (std::vector<ExprPtr>& row : s->rows) {
        for (ExprPtr& e : row) CollectParameterSlots(&e, out);
      }
      break;
    }
    case StatementKind::kDelete:
      CollectParameterSlots(&static_cast<DeleteStmt*>(stmt)->where, out);
      break;
    case StatementKind::kUpdate: {
      auto* s = static_cast<UpdateStmt*>(stmt);
      for (auto& [name, expr] : s->assignments) CollectParameterSlots(&expr, out);
      CollectParameterSlots(&s->where, out);
      break;
    }
    case StatementKind::kExplain:
      CollectStatementParameterSlots(static_cast<ExplainStmt*>(stmt)->inner.get(), out);
      break;
    default:
      break;  // DDL/ANALYZE carry no expressions
  }
}

}  // namespace

// --- PreparedStatement ------------------------------------------------------

Result<QueryResult> PreparedStatement::Execute(const std::vector<Value>& params) {
  if (params.size() != num_parameters()) {
    return Status::InvalidArgument("prepared statement takes " +
                                   std::to_string(num_parameters()) + " parameter(s), got " +
                                   std::to_string(params.size()));
  }
  EngineMetrics::Get().engine_prepared_executions->Add(1);
  StatementPtr stmt = CloneStatement(*template_);
  std::vector<ExprPtr*> slots;
  CollectStatementParameterSlots(stmt.get(), &slots);
  for (ExprPtr* slot : slots) {
    auto* param = static_cast<ParameterExpr*>(slot->get());
    if (param->ordinal() >= params.size()) {
      return Status::Internal("parameter ordinal out of range");
    }
    *slot = std::make_unique<LiteralExpr>(params[param->ordinal()]);
  }
  // Plan-cache entries are per parameter binding: the template text alone
  // would alias different literals to one (wrong) plan. A double renders as
  // its bit pattern, because ToString rounds it.
  std::string suffix;
  if (!params.empty()) {
    suffix = "|args:";
    for (const Value& v : params) {
      suffix += std::to_string(static_cast<int>(v.type())) + ":";
      suffix += v.type() == TypeId::kDouble && !v.is_null()
                    ? std::to_string(std::bit_cast<uint64_t>(v.AsDouble()))
                    : v.ToString();
      suffix += ";";
    }
  }
  bool produced = false;
  return session_->ExecuteStatement(stmt.get(), &produced, suffix.empty() ? nullptr : &suffix);
}

// --- Session ----------------------------------------------------------------

Result<QueryResult> Session::Execute(const std::string& sql) {
  RELOPT_ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, ParseScript(sql));
  QueryResult last;
  for (StatementPtr& stmt : stmts) {
    bool produced = false;
    RELOPT_ASSIGN_OR_RETURN(QueryResult result, ExecuteStatement(stmt.get(), &produced, nullptr));
    if (produced) last = std::move(result);
  }
  return last;
}

Result<std::string> Session::Explain(const std::string& select_sql) {
  RELOPT_ASSIGN_OR_RETURN(PhysicalPtr plan, PlanQuery(select_sql));
  return plan->ToString();
}

Result<PreparedStatement*> Session::Prepare(const std::string& sql) {
  RELOPT_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  EngineMetrics::Get().engine_statements_prepared->Add(1);
  prepared_.push_back(
      std::unique_ptr<PreparedStatement>(new PreparedStatement(this, sql, std::move(stmt))));
  return prepared_.back().get();
}

Result<LogicalPtr> Session::BindQuery(const std::string& select_sql) {
  RELOPT_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(select_sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  std::shared_lock<std::shared_mutex> lock(db_->statement_mu_);
  Binder binder(db_->catalog_.get());
  return binder.BindSelect(static_cast<SelectStmt*>(stmt.get()));
}

Result<PhysicalPtr> Session::PlanQuery(const std::string& select_sql, OptimizeInfo* info) {
  RELOPT_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(select_sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  std::shared_lock<std::shared_mutex> lock(db_->statement_mu_);
  Binder binder(db_->catalog_.get());
  RELOPT_ASSIGN_OR_RETURN(LogicalPtr logical,
                          binder.BindSelect(static_cast<SelectStmt*>(stmt.get())));
  OptimizeInfo local_info;
  if (info == nullptr) info = &local_info;
  return OptimizeLogical(std::move(logical), info, /*want_trace=*/false);
}

Result<QueryResult> Session::ExecutePlan(const PhysicalNode& plan) {
  record_ = std::make_shared<QueryRecord>();
  std::shared_lock<std::shared_mutex> lock(db_->statement_mu_);
  return ExecutePlanInternal(plan);
}

void Session::set_parallelism(size_t n) {
  options_.parallelism = n <= 1 ? 1 : n;
  db_->EnsureThreadPool(options_.parallelism);
}

Result<PhysicalPtr> Session::OptimizeLogical(LogicalPtr logical, OptimizeInfo* info,
                                             bool want_trace) {
  options_.optimizer.buffer_pages = db_->pool_->capacity();
  options_.optimizer.feedback = options_.cardinality_feedback ? &db_->feedback_ : nullptr;
  if (trace_optimizer_ || want_trace) {
    last_trace_ = std::make_unique<PlanTrace>();
    info->trace = last_trace_.get();
  }
  Optimizer optimizer(db_->catalog_.get(), options_.optimizer);
  return optimizer.Optimize(std::move(logical), info);
}

Result<PhysicalPtr> Session::PlanStatement(SelectStmt* select, bool want_trace) {
  Binder binder(db_->catalog_.get());
  RELOPT_ASSIGN_OR_RETURN(LogicalPtr logical, binder.BindSelect(select));
  OptimizeInfo info;
  const uint64_t start_nanos = MonotonicNanos();
  Result<PhysicalPtr> plan = OptimizeLogical(std::move(logical), &info, want_trace);
  record_->metrics.opt_nanos = MonotonicNanos() - start_nanos;
  record_->metrics.enum_stats = info.enum_stats;
  return plan;
}

Result<QueryResult> Session::ExecutePlanInternal(const PhysicalNode& plan) {
  const uint64_t exec_start_nanos = MonotonicNanos();

  ThreadPool* pool = options_.parallelism > 1 ? db_->thread_pool_.get() : nullptr;
  ExecContext ctx(db_->catalog_.get(), db_->pool_.get(), pool, options_.parallelism,
                  options_.batch_size);
  ctx.set_introspection(&MetricsRegistry::Global(), &db_->history_, &db_->plan_cache_,
                        &db_->feedback_);
  QueryResult result;
  result.schema = plan.schema();
  uint64_t batches = 0;
  ExecutorPtr root;  // must outlive Quiesce() and BuildPlanProfile below
  // Drive the plan to completion. Runs as a lambda so the error path falls
  // through to the same counter/profile capture as success: a statement that
  // fails mid-execution reports exactly the work it did, exactly once.
  auto drive = [&]() -> Status {
    RELOPT_ASSIGN_OR_RETURN(root, BuildExecutor(&ctx, &plan));
    RELOPT_RETURN_NOT_OK(root->Init());
    // Pull batches through the root; a false return can still carry the
    // stream's final rows.
    TupleBatch batch(ctx.batch_size());
    while (true) {
      RELOPT_ASSIGN_OR_RETURN(bool has, root->NextBatch(&batch));
      ++batches;
      for (uint32_t i : batch.selection()) {
        result.rows.push_back(std::move(*batch.MutableRowAt(i)));
      }
      if (!has) return Status::OK();
    }
  };
  Status status = drive();
  // Stop any still-running parallel workers (a LIMIT can abandon a Gather
  // mid-stream, and an error can leave them producing) before snapshotting
  // per-operator stats.
  ctx.Quiesce();

  record_->profile = BuildPlanProfile(plan, ctx);
  // Per-statement I/O from this execution's own operator attribution: global
  // counter deltas would absorb whatever other sessions did concurrently.
  // (Pool evictions/writebacks and page allocations are engine-global with
  // no per-operator attribution, so they stay zero here.)
  const OperatorStats total = record_->profile.Total();
  ExecutionMetrics& m = record_->metrics;
  m.io.page_reads = total.page_reads;
  m.io.page_writes = total.page_writes;
  m.pool.hits = total.pool_hits;
  m.pool.misses = total.pool_misses;
  m.tuples_processed = ctx.tuples_processed;
  m.exec_nanos = MonotonicNanos() - exec_start_nanos;
  m.executed_plan = true;

  const EngineMetrics& em = EngineMetrics::Get();
  em.exec_rows_produced->Add(result.rows.size());
  em.exec_batches_produced->Add(batches);

  // Close the loop: per-operator actuals flow back into the shared store so
  // the NEXT optimization of matching signatures uses measurements. Only
  // complete executions feed back (an error mid-stream means partial counts).
  if (options_.cardinality_feedback && status.ok()) {
    HarvestFeedback(plan, record_->profile, &db_->feedback_);
  }

  RELOPT_RETURN_NOT_OK(status);
  return result;
}

Result<QueryResult> Session::RunSelect(SelectStmt* stmt, const std::string* cache_suffix) {
  PlanCache& cache = db_->plan_cache_;
  options_.optimizer.buffer_pages = db_->pool_->capacity();
  options_.optimizer.feedback = options_.cardinality_feedback ? &db_->feedback_ : nullptr;
  const uint64_t catalog_version = db_->catalog_->version();
  // The key embeds the feedback version: a harvested observation that
  // materially changed the store makes every affected SELECT miss and
  // re-optimize against the corrected cardinalities.
  std::string key = PlanCacheKey(stmt->text, options_.optimizer);
  if (cache_suffix != nullptr) key += *cache_suffix;

  // Tracing needs an actual optimization to record; bypass the cache then.
  std::shared_ptr<const PhysicalNode> plan =
      trace_optimizer_ ? nullptr : cache.Lookup(key, catalog_version);
  // A hit runs no bind and no optimize, so opt_nanos stays 0.
  record_->metrics.plan_cache_hit = plan != nullptr;
  if (plan == nullptr) {
    RELOPT_ASSIGN_OR_RETURN(PhysicalPtr optimized, PlanStatement(stmt, /*want_trace=*/false));
    plan = std::shared_ptr<const PhysicalNode>(std::move(optimized));
    if (!trace_optimizer_) cache.Insert(key, catalog_version, plan);
  }
  return ExecutePlanInternal(*plan);
}

Result<std::string> Session::RunExplain(ExplainStmt* stmt) {
  RELOPT_ASSIGN_OR_RETURN(
      PhysicalPtr plan, PlanStatement(static_cast<SelectStmt*>(stmt->inner.get()), stmt->trace));
  std::string out;
  if (stmt->analyze) {
    RELOPT_ASSIGN_OR_RETURN(QueryResult result, ExecutePlanInternal(*plan));
    // The profile replaces the plain plan text: same tree, annotated with
    // actuals per operator.
    const ExecutionMetrics& m = record_->metrics;
    out = record_->profile.ToText();
    out += StringPrintf(
        "actual: rows=%zu page_reads=%llu page_writes=%llu pool_hits=%llu pool_misses=%llu "
        "tuples=%llu\n",
        result.rows.size(), static_cast<unsigned long long>(m.io.page_reads),
        static_cast<unsigned long long>(m.io.page_writes),
        static_cast<unsigned long long>(m.pool.hits),
        static_cast<unsigned long long>(m.pool.misses),
        static_cast<unsigned long long>(m.tuples_processed));
  } else {
    out = plan->ToString();
  }
  if (stmt->trace && last_trace_ != nullptr) {
    out += "-- optimizer trace --\n";
    out += last_trace_->ToText();
  }
  return out;
}

Status Session::RunInsert(InsertStmt* stmt) {
  Catalog* catalog = db_->catalog_.get();
  RELOPT_ASSIGN_OR_RETURN(TableInfo * table, catalog->GetTable(stmt->table_name));
  const Schema& schema = table->schema();

  // Map the statement's columns to schema positions.
  std::vector<size_t> positions;
  if (stmt->columns.empty()) {
    for (size_t i = 0; i < schema.NumColumns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt->columns) {
      RELOPT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name));
      positions.push_back(idx);
    }
  }

  // Evaluate and cast every row before inserting any, so a bad value fails
  // the statement without writing a row.
  std::vector<Tuple> tuples;
  tuples.reserve(stmt->rows.size());
  for (std::vector<ExprPtr>& row : stmt->rows) {
    if (row.size() != positions.size()) {
      return Status::InvalidArgument("INSERT row has " + std::to_string(row.size()) +
                                     " values, expected " + std::to_string(positions.size()));
    }
    std::vector<Value> values;
    values.reserve(schema.NumColumns());
    for (size_t i = 0; i < schema.NumColumns(); ++i) {
      values.push_back(Value::Null(schema.ColumnAt(i).type));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      ExprPtr folded = FoldConstants(std::move(row[i]));
      RELOPT_ASSIGN_OR_RETURN(Value v, EvalConstant(folded.get()));
      RELOPT_ASSIGN_OR_RETURN(Value cast, v.CastTo(schema.ColumnAt(positions[i]).type));
      values[positions[i]] = std::move(cast);
    }
    tuples.push_back(Tuple(std::move(values)));
    RELOPT_RETURN_NOT_OK(catalog->CheckRow(table, tuples.back()));
  }
  // The writes change the data the feedback observations were measured on.
  db_->feedback_.InvalidateTable(stmt->table_name);
  for (const Tuple& tuple : tuples) {
    RELOPT_RETURN_NOT_OK(catalog->InsertTuple(table, tuple).status());
  }
  return Status::OK();
}

Status Session::RunWrite(const std::string& table_name, ExprPtr where,
                         std::vector<std::pair<std::string, ExprPtr>>* assignments) {
  Catalog* catalog = db_->catalog_.get();
  RELOPT_ASSIGN_OR_RETURN(TableInfo * table, catalog->GetTable(table_name));
  const Schema& schema = table->schema();

  // The rows to write are the query SELECT #rid, <new row> FROM t WHERE p,
  // planned and run as any query is. Each column of the new row is the
  // column itself or its assigned value, which may read the old values.
  SelectStmt query;
  TableRef ref;
  ref.table_name = table_name;
  ref.with_rid = true;
  query.from.push_back(std::move(ref));
  query.where = std::move(where);
  query.items.emplace_back();
  query.items.back().expr = MakeColumnRef("", "#rid");
  std::vector<size_t> assigned;
  if (assignments != nullptr) {
    for (const Column& col : schema.columns()) {
      query.items.emplace_back();
      query.items.back().expr = MakeColumnRef("", col.name);
    }
    for (auto& [col_name, value_expr] : *assignments) {
      RELOPT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col_name));
      // The binder would turn the query into an aggregation.
      if (value_expr->ContainsAggregate()) {
        return Status::BindError("aggregate calls are not allowed in SET");
      }
      // A constant is cast here, once: a value its column cannot take fails
      // the statement before anything is read, however many rows match.
      ExprPtr value = FoldConstants(std::move(value_expr));
      if (value->kind() == ExprKind::kLiteral) {
        RELOPT_ASSIGN_OR_RETURN(
            Value cast, static_cast<LiteralExpr&>(*value).value().CastTo(schema.ColumnAt(idx).type));
        value = std::make_unique<LiteralExpr>(std::move(cast));
      }
      query.items[1 + idx].expr = std::move(value);
      assigned.push_back(idx);
    }
  }
  RELOPT_ASSIGN_OR_RETURN(PhysicalPtr plan, PlanStatement(&query, /*want_trace=*/false));
  RELOPT_ASSIGN_OR_RETURN(QueryResult result, ExecutePlanInternal(*plan));

  // Write only after the plan has read every row, so it never sees the
  // statement's own writes, and in RID order, whatever order the plan
  // produced. Every new row is cast and checked before the first write, so
  // a bad value writes nothing.
  std::vector<Tuple>& rows = result.rows;
  std::sort(rows.begin(), rows.end(),
            [](const Tuple& a, const Tuple& b) { return a.At(0).AsInt() < b.At(0).AsInt(); });
  std::vector<Tuple> images;
  if (assignments != nullptr) {
    images.reserve(rows.size());
    for (Tuple& row : rows) {
      Tuple image;
      for (size_t i = 1; i < row.NumValues(); ++i) image.Append(std::move(row.MutableAt(i)));
      for (size_t idx : assigned) {
        RELOPT_ASSIGN_OR_RETURN(image.MutableAt(idx),
                                image.At(idx).CastTo(schema.ColumnAt(idx).type));
      }
      RELOPT_RETURN_NOT_OK(catalog->CheckRow(table, image));
      images.push_back(std::move(image));
    }
  }
  if (rows.empty()) return Status::OK();
  db_->feedback_.InvalidateTable(table_name);
  // An UPDATE is a delete plus an insert, so every index stays consistent.
  for (size_t r = 0; r < rows.size(); ++r) {
    RELOPT_RETURN_NOT_OK(catalog->DeleteTuple(table, Rid::Unpack(rows[r].At(0).AsInt())));
    if (assignments != nullptr) {
      RELOPT_RETURN_NOT_OK(catalog->InsertTuple(table, images[r]).status());
    }
  }
  return Status::OK();
}

Result<QueryResult> Session::RunStatement(Statement* stmt, bool* produced_rows,
                                          const std::string* cache_suffix) {
  *produced_rows = false;
  // Each statement reports only its own deltas, into its own fresh record.
  // SELECT/EXPLAIN capture inside ExecutePlanInternal from per-operator
  // attribution; DML/DDL run under the exclusive statement lock, so the
  // global-delta capture below sees only this statement's work.
  Catalog* catalog = db_->catalog_.get();
  IoStats io_before = db_->disk_->stats();
  BufferPoolStats pool_before = db_->pool_->stats();
  auto capture = [&]() {
    IoStats io_after = db_->disk_->stats();
    BufferPoolStats pool_after = db_->pool_->stats();
    ExecutionMetrics& m = record_->metrics;
    m.io.page_reads = io_after.page_reads - io_before.page_reads;
    m.io.page_writes = io_after.page_writes - io_before.page_writes;
    m.io.pages_allocated = io_after.pages_allocated - io_before.pages_allocated;
    m.pool.hits = pool_after.hits - pool_before.hits;
    m.pool.misses = pool_after.misses - pool_before.misses;
    m.pool.evictions = pool_after.evictions - pool_before.evictions;
    m.pool.dirty_writebacks = pool_after.dirty_writebacks - pool_before.dirty_writebacks;
  };
  // DML/DDL run through `finish` so counters are captured exactly once on
  // both the success and the error path (a failed UPDATE still reports the
  // pages it scanned, and never leaks them into the next statement).
  auto finish = [&](Status s) -> Result<QueryResult> {
    capture();
    RELOPT_RETURN_NOT_OK(s);
    return QueryResult{};
  };
  switch (stmt->kind) {
    case StatementKind::kCreateTable: {
      auto* create = static_cast<CreateTableStmt*>(stmt);
      Schema schema;
      for (const ColumnDef& def : create->columns) {
        schema.AddColumn(Column(def.name, def.type, create->table_name));
      }
      return finish(catalog->CreateTable(create->table_name, std::move(schema)).status());
    }
    case StatementKind::kCreateIndex: {
      auto* create = static_cast<CreateIndexStmt*>(stmt);
      return finish(catalog->CreateIndex(create->index_name, create->table_name, create->columns,
                                         create->clustered)
                        .status());
    }
    case StatementKind::kDropTable: {
      auto* drop = static_cast<DropTableStmt*>(stmt);
      if (drop->if_exists && !catalog->HasTable(drop->table_name)) {
        return finish(Status::OK());
      }
      return finish(catalog->DropTable(drop->table_name));
    }
    case StatementKind::kInsert:
      return finish(RunInsert(static_cast<InsertStmt*>(stmt)));
    case StatementKind::kAnalyze: {
      auto* analyze = static_cast<AnalyzeStmt*>(stmt);
      auto run = [&]() -> Status {
        if (!analyze->table_name.empty()) {
          return catalog->AnalyzeTable(analyze->table_name, options_.analyze_buckets);
        }
        for (const std::string& name : catalog->TableNames()) {
          RELOPT_RETURN_NOT_OK(catalog->AnalyzeTable(name, options_.analyze_buckets));
        }
        return Status::OK();
      };
      return finish(run());
    }
    case StatementKind::kDelete: {
      auto* del = static_cast<DeleteStmt*>(stmt);
      return finish(RunWrite(del->table_name, std::move(del->where), nullptr));
    }
    case StatementKind::kUpdate: {
      auto* update = static_cast<UpdateStmt*>(stmt);
      return finish(
          RunWrite(update->table_name, std::move(update->where), &update->assignments));
    }
    case StatementKind::kSelect: {
      *produced_rows = true;
      return RunSelect(static_cast<SelectStmt*>(stmt), cache_suffix);
    }
    case StatementKind::kExplain: {
      *produced_rows = true;
      RELOPT_ASSIGN_OR_RETURN(std::string text, RunExplain(static_cast<ExplainStmt*>(stmt)));
      QueryResult result;
      result.schema.AddColumn(Column("plan", TypeId::kString));
      for (const std::string& line : Split(text, '\n')) {
        if (line.empty()) continue;
        result.rows.push_back(Tuple({Value::String(line)}));
      }
      return result;
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<QueryResult> Session::ExecuteStatement(Statement* stmt, bool* produced_rows,
                                              const std::string* cache_suffix) {
  record_ = std::make_shared<QueryRecord>();
  const uint64_t start_nanos = MonotonicNanos();
  Result<QueryResult> result = Status::Internal("statement did not run");
  if (IsReadStatement(stmt->kind)) {
    // Readers share the lock: SELECT/EXPLAIN from different sessions run
    // concurrently (plans, catalog entries, and the buffer pool are all
    // safe for concurrent readers).
    std::shared_lock<std::shared_mutex> lock(db_->statement_mu_);
    result = RunStatement(stmt, produced_rows, cache_suffix);
  } else {
    // Writers serialize, and never overlap any reader.
    std::unique_lock<std::shared_mutex> lock(db_->statement_mu_);
    result = RunStatement(stmt, produced_rows, cache_suffix);
    if (result.ok() && InvalidatesPlans(stmt->kind)) {
      db_->plan_cache_.InvalidateStale(db_->catalog_->version());
      // Schema changes and fresh statistics retire feedback wholesale: old
      // observations may describe dropped columns or superseded data. (DML
      // drops its own table's entries where it writes.)
      db_->feedback_.Clear();
    }
  }
  const uint64_t wall_nanos = MonotonicNanos() - start_nanos;
  RecordStatement(*stmt, result.status(), result.ok() ? result->rows.size() : 0, wall_nanos);
  return result;
}

void Session::RecordStatement(const Statement& stmt, const Status& status,
                              uint64_t rows_returned, uint64_t wall_nanos) {
  const char* verb = StatementVerb(stmt.kind);
  const EngineMetrics& em = EngineMetrics::Get();
  em.engine_statement_us->Observe(static_cast<double>(wall_nanos) / 1000.0);
  MetricsRegistry::Global().counter(std::string("relopt.engine.statements.") + verb)->Add(1);
  if (status.ok()) {
    em.engine_statement_rows->Observe(static_cast<double>(rows_returned));
  } else {
    em.exec_statements_failed->Add(1);
    MetricsRegistry::Global()
        .counter("relopt.engine.errors." + ToLower(StatusCodeToString(status.code())))
        ->Add(1);
  }

  QueryRecord& rec = *record_;
  rec.session_id = id_;
  rec.verb = verb;
  rec.status = status.ok() ? "OK" : StatusCodeToString(status.code());
  rec.error = status.ok() ? "" : status.message();
  rec.sql = NormalizeSql(stmt.text);
  rec.wall_micros = wall_nanos / 1000;
  rec.rows_returned = rows_returned;
  rec.parallelism = options_.parallelism;
  rec.batch_size = options_.batch_size;
  db_->history_.Append(record_);
}

}  // namespace relopt
