// QueryHistoryStore: a bounded ring buffer of per-statement execution records.
//
// Every statement Database::Execute runs — including failing ones — appends
// one QueryRecord: the normalized SQL, timing split (wall / optimize /
// execute), result and I/O counters, the execution-mode settings it ran
// under, and (for statements that drove an executor tree) the per-operator
// estimated-vs-actual cardinalities + Q-error lifted from the PlanProfile.
// The retained Q-error records are the substrate for the cardinality
// feedback loop (ROADMAP item 2); the relopt_query_log() and
// relopt_operator_stats() table functions expose the store through SQL.
//
// Statements whose wall time reaches the configurable slow-query threshold
// additionally emit a structured one-line JSON record through the logging
// sink (util/logging.h), so an operator tailing the log sees them live.
//
// Thread-safe: appends and snapshots are mutex-guarded (the store is shared
// by future concurrent sessions; the differential tests exercise concurrent
// appends).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace relopt {

/// One operator's retained estimate-vs-actual record.
struct OperatorRecord {
  std::string op;        ///< physical operator kind name, e.g. "HashJoin"
  std::string describe;  ///< PhysicalNode::Describe() text
  double est_rows = 0;
  uint64_t actual_rows = 0;
  double q_error = 1;    ///< max(est/actual, actual/est), clamped >= 1
  uint64_t page_reads = 0;   ///< self-attributed
  uint64_t page_writes = 0;  ///< self-attributed
  uint64_t wall_nanos = 0;   ///< inclusive
  uint64_t batches = 0;
};

/// One statement's retained execution record.
struct QueryRecord {
  uint64_t id = 0;           ///< monotonically increasing, never reused
  uint64_t session_id = 0;   ///< the Session that ran the statement
  std::string verb;          ///< "select", "insert", "explain", ...
  std::string status;        ///< "OK" or the StatusCode name
  std::string error;         ///< error message (empty on success)
  std::string sql;           ///< normalized statement text
  uint64_t wall_micros = 0;  ///< whole statement (parse excluded; see Database)
  uint64_t opt_micros = 0;   ///< bind + optimize time (SELECT/EXPLAIN only)
  uint64_t exec_micros = 0;  ///< executor drive time (plan executions only)
  uint64_t rows_returned = 0;
  uint64_t tuples_processed = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  size_t parallelism = 1;
  size_t batch_size = 0;
  bool plan_cache_hit = false;  ///< SELECT served from the shared plan cache
  std::vector<OperatorRecord> operators;  ///< empty when no plan was executed

  /// The slow-query log line: a one-line JSON object.
  std::string ToJson() const;
};

/// \brief Bounded ring buffer of the most recent `capacity` QueryRecords.
class QueryHistoryStore {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit QueryHistoryStore(size_t capacity = kDefaultCapacity);

  /// Assigns the record's id and retains it, evicting the oldest record when
  /// full. Emits the slow-query JSON log line when the record's wall time
  /// reaches the threshold. Thread-safe. Returns the assigned id.
  uint64_t Append(QueryRecord record);

  /// The retained records, oldest first. Thread-safe.
  std::vector<QueryRecord> Snapshot() const;

  /// Statements with wall time >= this emit a WARN-level JSON log line;
  /// negative disables (the default). Thread-safe.
  void set_slow_query_micros(int64_t micros) { slow_query_micros_.store(micros); }
  int64_t slow_query_micros() const { return slow_query_micros_.load(); }

  size_t capacity() const { return capacity_; }
  /// Number of records currently retained (<= capacity). Thread-safe.
  size_t size() const;
  /// Total records ever appended (ids run 1..total). Thread-safe.
  uint64_t total_appended() const;

  /// Drops all retained records (ids keep increasing). Thread-safe.
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;  ///< guards ring_, head_, next_id_
  std::vector<QueryRecord> ring_;
  size_t head_ = 0;  ///< index of the oldest record once the ring is full
  uint64_t next_id_ = 1;
  std::atomic<int64_t> slow_query_micros_{-1};
};

/// \brief Normalizes SQL for retention/grouping: collapses whitespace,
/// lower-cases text outside quoted strings, and replaces numeric and string
/// literals with '?' so records group by query shape and retain no data
/// values ("SELECT * FROM emp WHERE id = 7" -> "select * from emp where
/// id = ?").
std::string NormalizeSql(const std::string& sql);

}  // namespace relopt
