#include "engine/table_functions.h"

#include "engine/plan_cache.h"
#include "engine/query_history.h"
#include "optimizer/feedback.h"
#include "util/metrics.h"
#include "util/str_util.h"

namespace relopt {

namespace {

constexpr const char* kMetricsFn = "relopt_metrics";
constexpr const char* kQueryLogFn = "relopt_query_log";
constexpr const char* kOperatorStatsFn = "relopt_operator_stats";
constexpr const char* kPlanCacheFn = "relopt_plan_cache";
constexpr const char* kFeedbackFn = "relopt_feedback";

Schema MetricsSchema() {
  Schema s;
  s.AddColumn(Column("name", TypeId::kString));
  s.AddColumn(Column("kind", TypeId::kString));
  s.AddColumn(Column("value", TypeId::kDouble));
  s.AddColumn(Column("count", TypeId::kInt64));
  s.AddColumn(Column("p50", TypeId::kDouble));
  s.AddColumn(Column("p95", TypeId::kDouble));
  s.AddColumn(Column("p99", TypeId::kDouble));
  return s;
}

Schema QueryLogSchema() {
  Schema s;
  s.AddColumn(Column("id", TypeId::kInt64));
  s.AddColumn(Column("session_id", TypeId::kInt64));
  s.AddColumn(Column("verb", TypeId::kString));
  s.AddColumn(Column("status", TypeId::kString));
  s.AddColumn(Column("error", TypeId::kString));
  s.AddColumn(Column("sql", TypeId::kString));
  s.AddColumn(Column("wall_us", TypeId::kInt64));
  s.AddColumn(Column("opt_us", TypeId::kInt64));
  s.AddColumn(Column("exec_us", TypeId::kInt64));
  s.AddColumn(Column("rows", TypeId::kInt64));
  s.AddColumn(Column("tuples", TypeId::kInt64));
  s.AddColumn(Column("page_reads", TypeId::kInt64));
  s.AddColumn(Column("page_writes", TypeId::kInt64));
  s.AddColumn(Column("pool_hits", TypeId::kInt64));
  s.AddColumn(Column("pool_misses", TypeId::kInt64));
  s.AddColumn(Column("parallelism", TypeId::kInt64));
  s.AddColumn(Column("batch_size", TypeId::kInt64));
  s.AddColumn(Column("plan_cache_hit", TypeId::kBool));
  return s;
}

Schema PlanCacheSchema() {
  Schema s;
  s.AddColumn(Column("key", TypeId::kString));
  s.AddColumn(Column("catalog_version", TypeId::kInt64));
  s.AddColumn(Column("hits", TypeId::kInt64));
  s.AddColumn(Column("est_cost", TypeId::kDouble));
  s.AddColumn(Column("est_rows", TypeId::kDouble));
  s.AddColumn(Column("plan_root", TypeId::kString));
  return s;
}

Schema FeedbackSchema() {
  Schema s;
  s.AddColumn(Column("kind", TypeId::kString));       // "scan" or "join"
  s.AddColumn(Column("tables", TypeId::kString));     // comma-joined table names
  s.AddColumn(Column("signature", TypeId::kString));
  s.AddColumn(Column("value", TypeId::kDouble));      // rows (scan) / selectivity (join)
  s.AddColumn(Column("updates", TypeId::kInt64));
  s.AddColumn(Column("hits", TypeId::kInt64));
  return s;
}

Schema OperatorStatsSchema() {
  Schema s;
  s.AddColumn(Column("query_id", TypeId::kInt64));
  s.AddColumn(Column("op", TypeId::kString));
  s.AddColumn(Column("detail", TypeId::kString));
  s.AddColumn(Column("est_rows", TypeId::kDouble));
  s.AddColumn(Column("actual_rows", TypeId::kInt64));
  s.AddColumn(Column("q_error", TypeId::kDouble));
  s.AddColumn(Column("page_reads", TypeId::kInt64));
  s.AddColumn(Column("page_writes", TypeId::kInt64));
  s.AddColumn(Column("wall_us", TypeId::kInt64));
  s.AddColumn(Column("batches", TypeId::kInt64));
  return s;
}

int64_t ToI64(uint64_t v) { return static_cast<int64_t>(v); }

std::vector<Tuple> MetricsRows(const MetricsRegistry& registry) {
  std::vector<Tuple> rows;
  for (const MetricSample& s : registry.Snapshot()) {
    rows.push_back(Tuple({Value::String(s.name), Value::String(s.kind), Value::Double(s.value),
                          Value::Int(ToI64(s.count)), Value::Double(s.p50), Value::Double(s.p95),
                          Value::Double(s.p99)}));
  }
  return rows;
}

std::vector<Tuple> QueryLogRows(const QueryHistoryStore* history) {
  std::vector<Tuple> rows;
  if (history == nullptr) return rows;
  for (const std::shared_ptr<const QueryRecord>& r : history->Snapshot()) {
    const ExecutionMetrics& m = r->metrics;
    rows.push_back(Tuple({Value::Int(ToI64(r->id)), Value::Int(ToI64(r->session_id)),
                          Value::String(r->verb), Value::String(r->status),
                          Value::String(r->error), Value::String(r->sql),
                          Value::Int(ToI64(r->wall_micros)), Value::Int(ToI64(m.opt_nanos / 1000)),
                          Value::Int(ToI64(m.exec_nanos / 1000)),
                          Value::Int(ToI64(r->rows_returned)),
                          Value::Int(ToI64(m.tuples_processed)), Value::Int(ToI64(m.io.page_reads)),
                          Value::Int(ToI64(m.io.page_writes)), Value::Int(ToI64(m.pool.hits)),
                          Value::Int(ToI64(m.pool.misses)),
                          Value::Int(static_cast<int64_t>(r->parallelism)),
                          Value::Int(static_cast<int64_t>(r->batch_size)),
                          Value::Bool(m.plan_cache_hit)}));
  }
  return rows;
}

std::vector<Tuple> PlanCacheRows(const PlanCache* plan_cache) {
  std::vector<Tuple> rows;
  if (plan_cache == nullptr) return rows;
  for (const PlanCache::EntryInfo& e : plan_cache->Snapshot()) {
    rows.push_back(Tuple({Value::String(e.key), Value::Int(ToI64(e.catalog_version)),
                          Value::Int(ToI64(e.hits)), Value::Double(e.est_cost),
                          Value::Double(e.est_rows), Value::String(e.plan_root)}));
  }
  return rows;
}

std::vector<Tuple> FeedbackRows(const FeedbackStore* feedback) {
  std::vector<Tuple> rows;
  if (feedback == nullptr) return rows;
  for (const FeedbackStore::EntryInfo& e : feedback->Snapshot()) {
    rows.push_back(Tuple({Value::String(e.kind), Value::String(e.tables),
                          Value::String(e.signature), Value::Double(e.value),
                          Value::Int(ToI64(e.updates)), Value::Int(ToI64(e.hits))}));
  }
  return rows;
}

std::vector<Tuple> OperatorStatsRows(const QueryHistoryStore* history) {
  std::vector<Tuple> rows;
  if (history == nullptr) return rows;
  for (const std::shared_ptr<const QueryRecord>& r : history->Snapshot()) {
    if (!r->profile.valid) continue;
    ForEachOperator(r->profile.root, [&](const OperatorProfile& op) {
      rows.push_back(Tuple({Value::Int(ToI64(r->id)), Value::String(op.op),
                            Value::String(op.describe), Value::Double(op.est_rows),
                            Value::Int(ToI64(op.stats.rows_produced)), Value::Double(op.q_error()),
                            Value::Int(ToI64(op.stats.page_reads)),
                            Value::Int(ToI64(op.stats.page_writes)),
                            Value::Int(ToI64(op.stats.wall_nanos / 1000)),
                            Value::Int(ToI64(op.stats.batches_produced))}));
    });
  }
  return rows;
}

}  // namespace

bool IsTableFunction(const std::string& name) {
  std::string lower = ToLower(name);
  return lower == kMetricsFn || lower == kQueryLogFn || lower == kOperatorStatsFn ||
         lower == kPlanCacheFn || lower == kFeedbackFn;
}

Result<Schema> TableFunctionSchema(const std::string& name, const std::string& alias) {
  std::string lower = ToLower(name);
  Schema s;
  if (lower == kMetricsFn) {
    s = MetricsSchema();
  } else if (lower == kQueryLogFn) {
    s = QueryLogSchema();
  } else if (lower == kOperatorStatsFn) {
    s = OperatorStatsSchema();
  } else if (lower == kPlanCacheFn) {
    s = PlanCacheSchema();
  } else if (lower == kFeedbackFn) {
    s = FeedbackSchema();
  } else {
    return Status::NotFound("unknown table function '" + name + "'");
  }
  return s.WithQualifier(alias);
}

Result<std::vector<Tuple>> EvalTableFunction(const std::string& name,
                                             const MetricsRegistry* metrics,
                                             const QueryHistoryStore* history,
                                             const PlanCache* plan_cache,
                                             const FeedbackStore* feedback) {
  std::string lower = ToLower(name);
  if (lower == kMetricsFn) {
    if (metrics == nullptr) return Status::Internal("no metrics registry in execution context");
    return MetricsRows(*metrics);
  }
  if (lower == kQueryLogFn) return QueryLogRows(history);
  if (lower == kOperatorStatsFn) return OperatorStatsRows(history);
  if (lower == kPlanCacheFn) return PlanCacheRows(plan_cache);
  if (lower == kFeedbackFn) return FeedbackRows(feedback);
  return Status::NotFound("unknown table function '" + name + "'");
}

}  // namespace relopt
