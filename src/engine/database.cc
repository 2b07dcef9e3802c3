#include "engine/database.h"

#include <algorithm>

#include "engine/session.h"
#include "util/metrics.h"

namespace relopt {

std::string QueryResult::ToString() const {
  // Column widths.
  std::vector<std::string> headers;
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    headers.push_back(schema.ColumnAt(i).QualifiedName());
  }
  std::vector<size_t> widths;
  for (const std::string& h : headers) widths.push_back(h.size());
  std::vector<std::vector<std::string>> cells;
  for (const Tuple& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.NumValues(); ++i) {
      std::string s = row.At(i).ToString();
      if (i < widths.size()) widths[i] = std::max(widths[i], s.size());
      line.push_back(std::move(s));
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (size_t i = 0; i < headers.size(); ++i) {
    if (i > 0) out += " | ";
    out += headers[i];
    out += std::string(widths[i] - headers[i].size(), ' ');
  }
  out += "\n";
  for (size_t i = 0; i < headers.size(); ++i) {
    if (i > 0) out += "-+-";
    out += std::string(widths[i], '-');
  }
  out += "\n";
  for (const std::vector<std::string>& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (i > 0) out += " | ";
      out += line[i];
      if (i < widths.size() && widths[i] > line[i].size()) {
        out += std::string(widths[i] - line[i].size(), ' ');
      }
    }
    out += "\n";
  }
  out += "(" + std::to_string(rows.size()) + " rows)\n";
  return out;
}

Database::Database(SessionOptions options)
    : disk_(std::make_unique<DiskManager>()),
      pool_(std::make_unique<BufferPool>(disk_.get(), options.buffer_pool_pages)),
      catalog_(std::make_unique<Catalog>(pool_.get())),
      default_options_(std::move(options)) {
  default_options_.optimizer.buffer_pages = default_options_.buffer_pool_pages;
  default_session_ = CreateSession(default_options_);
}

Database::~Database() = default;

Session* Database::CreateSession() { return CreateSession(default_options_); }

Session* Database::CreateSession(SessionOptions options) {
  options.optimizer.buffer_pages = pool_->capacity();
  if (options.parallelism > 1) EnsureThreadPool(options.parallelism);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.push_back(
      std::unique_ptr<Session>(new Session(this, next_session_id_++, std::move(options))));
  EngineMetrics::Get().engine_sessions_opened->Add(1);
  return sessions_.back().get();
}

void Database::EnsureThreadPool(size_t n) {
  if (n <= 1) return;
  // Exclusive statement lock: no executor may hold a pointer to the old pool
  // while it is replaced. Growing is rare (session setup); the pool never
  // shrinks because other sessions may still be sized for it.
  std::unique_lock<std::shared_mutex> lock(statement_mu_);
  if (thread_pool_ == nullptr || thread_pool_->num_threads() < n) {
    thread_pool_ = std::make_unique<ThreadPool>(n);
  }
}

void Database::ResetCounters() {
  disk_->ResetStats();
  pool_->ResetStats();
}

// --- default-session delegation ---------------------------------------------

Result<QueryResult> Database::Execute(const std::string& sql) {
  return default_session_->Execute(sql);
}

Result<std::string> Database::Explain(const std::string& select_sql) {
  return default_session_->Explain(select_sql);
}

Result<PhysicalPtr> Database::PlanQuery(const std::string& select_sql, OptimizeInfo* info) {
  return default_session_->PlanQuery(select_sql, info);
}

Result<LogicalPtr> Database::BindQuery(const std::string& select_sql) {
  return default_session_->BindQuery(select_sql);
}

Result<QueryResult> Database::ExecutePlan(const PhysicalNode& plan) {
  return default_session_->ExecutePlan(plan);
}

SessionOptions& Database::options() { return default_session_->options(); }

const ExecutionMetrics& Database::last_metrics() const { return default_session_->last_metrics(); }

const PlanProfile& Database::last_profile() const { return default_session_->last_profile(); }

void Database::set_trace_optimizer(bool on) { default_session_->set_trace_optimizer(on); }

const PlanTrace* Database::last_trace() const { return default_session_->last_trace(); }

void Database::set_parallelism(size_t n) { default_session_->set_parallelism(n); }

size_t Database::parallelism() const { return default_session_->parallelism(); }

void Database::set_cardinality_feedback(bool on) {
  default_session_->set_cardinality_feedback(on);
}

bool Database::cardinality_feedback() const {
  return default_session_->cardinality_feedback();
}

void Database::set_batch_size(size_t n) { default_session_->set_batch_size(n); }

size_t Database::batch_size() const { return default_session_->batch_size(); }

}  // namespace relopt
