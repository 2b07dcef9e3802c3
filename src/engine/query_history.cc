#include "engine/query_history.h"

#include <cctype>
#include <utility>

#include "util/logging.h"
#include "util/str_util.h"

namespace relopt {

std::string QueryRecord::ToJson() const {
  std::string out = "{";
  out += "\"event\": \"slow_query\"";
  out += ", \"id\": " + std::to_string(id);
  out += ", \"session\": " + std::to_string(session_id);
  out += ", \"verb\": \"" + JsonEscape(verb) + "\"";
  out += ", \"status\": \"" + JsonEscape(status) + "\"";
  if (!error.empty()) out += ", \"error\": \"" + JsonEscape(error) + "\"";
  out += ", \"sql\": \"" + JsonEscape(sql) + "\"";
  out += ", \"wall_us\": " + std::to_string(wall_micros);
  out += ", \"opt_us\": " + std::to_string(metrics.opt_nanos / 1000);
  out += ", \"exec_us\": " + std::to_string(metrics.exec_nanos / 1000);
  out += ", \"rows\": " + std::to_string(rows_returned);
  out += ", \"tuples\": " + std::to_string(metrics.tuples_processed);
  out += ", \"page_reads\": " + std::to_string(metrics.io.page_reads);
  out += ", \"page_writes\": " + std::to_string(metrics.io.page_writes);
  out += ", \"pool_hits\": " + std::to_string(metrics.pool.hits);
  out += ", \"pool_misses\": " + std::to_string(metrics.pool.misses);
  out += ", \"parallelism\": " + std::to_string(parallelism);
  out += ", \"batch_size\": " + std::to_string(batch_size);
  out += std::string(", \"plan_cache_hit\": ") + (metrics.plan_cache_hit ? "true" : "false");
  if (profile.valid) {
    out += ", \"operators\": [";
    bool first = true;
    ForEachOperator(profile.root, [&](const OperatorProfile& op) {
      if (!first) out += ", ";
      first = false;
      out += "{\"op\": \"" + JsonEscape(op.op) + "\", \"est_rows\": " + FormatDouble(op.est_rows) +
             ", \"actual_rows\": " + std::to_string(op.stats.rows_produced) +
             ", \"q_error\": " + FormatDouble(op.q_error()) + "}";
    });
    out += "]";
  }
  out += "}";
  return out;
}

QueryHistoryStore::QueryHistoryStore(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

uint64_t QueryHistoryStore::Append(std::shared_ptr<QueryRecord> record) {
  int64_t slow_us = slow_query_micros_.load();
  bool slow = slow_us >= 0 && record->wall_micros >= static_cast<uint64_t>(slow_us);
  uint64_t id;
  std::shared_ptr<const QueryRecord> evicted;  // released after the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    record->id = id;
    if (slow) {
      // Emit under the lock so concurrent appends produce ordered lines; the
      // log sink serializes emission anyway (logging.cc).
      RELOPT_LOG(kWarn) << record->ToJson();
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      // Full: overwrite the oldest slot and advance the head.
      evicted = std::exchange(ring_[head_], std::move(record));
      head_ = (head_ + 1) % capacity_;
    }
  }
  return id;
}

std::vector<std::shared_ptr<const QueryRecord>> QueryHistoryStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const QueryRecord>> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

size_t QueryHistoryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t QueryHistoryStore::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

void QueryHistoryStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
}

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  size_t i = 0;
  auto last_out_nonspace = [&out]() -> char {
    return out.empty() ? '\0' : out.back();
  };
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      // Collapse any whitespace run to one space (dropped again if leading
      // or trailing).
      if (!out.empty() && out.back() != ' ') out += ' ';
      ++i;
      continue;
    }
    if (c == '\'') {
      // String literal (with '' escapes) -> '?'.
      ++i;
      while (i < sql.size()) {
        if (sql[i] == '\'' && i + 1 < sql.size() && sql[i + 1] == '\'') {
          i += 2;
          continue;
        }
        if (sql[i] == '\'') {
          ++i;
          break;
        }
        ++i;
      }
      out += '?';
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) &&
        !std::isalnum(static_cast<unsigned char>(last_out_nonspace())) &&
        last_out_nonspace() != '_') {
      // Numeric literal (integer or decimal, possibly exponent) -> '?'.
      // A digit following an identifier character is part of a name ("emp2").
      ++i;
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) || sql[i] == '.' ||
              sql[i] == 'e' || sql[i] == 'E' ||
              ((sql[i] == '+' || sql[i] == '-') && (sql[i - 1] == 'e' || sql[i - 1] == 'E')))) {
        ++i;
      }
      out += '?';
      continue;
    }
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    ++i;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace relopt
