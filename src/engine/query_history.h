// QueryHistoryStore: a bounded ring buffer of per-statement records.
//
// Every statement a Session runs — including failing ones — produces one
// QueryRecord: the normalized SQL, its status and wall time, the
// ExecutionMetrics the statement captured (optimize / execute time, result
// and I/O counters, plan-cache hit) and, for statements that drove an
// executor tree, the PlanProfile with each operator's estimated-vs-actual
// cardinality. The Session fills the record and appends it once; from then
// on it is immutable and shared: Session::last_metrics()/last_profile(),
// EXPLAIN ANALYZE, the slow-query log and the relopt_query_log() /
// relopt_operator_stats() table functions all read the same object.
//
// Statements whose wall time reaches the configurable slow-query threshold
// additionally emit a structured one-line JSON record through the logging
// sink (util/logging.h), so an operator tailing the log sees them live.
//
// Thread-safe: appends and snapshots are mutex-guarded (concurrent sessions
// share the store).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/plan_profile.h"
#include "optimizer/join_enum.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/status.h"

namespace relopt {

/// Counters captured around one statement's execution, each written once
/// per statement, on the success AND error paths, so a statement that fails
/// mid-execution still reports (only) the work it actually did.
///
/// For statements that drive an executor tree, the I/O and pool counters are
/// summed from the plan's per-operator attribution (thread-local, so they
/// stay exact when other sessions execute concurrently); DML/DDL run under
/// the exclusive statement lock and use global counter deltas.
struct ExecutionMetrics {
  IoStats io;                 ///< page reads/writes during execution
  BufferPoolStats pool;       ///< hits/misses during execution
  uint64_t tuples_processed = 0;
  JoinEnumStats enum_stats;   ///< join enumeration (SELECT/EXPLAIN that optimized)
  uint64_t opt_nanos = 0;     ///< OptimizeLogical time; bind is not inside it
  uint64_t exec_nanos = 0;    ///< executor build + drive time
  bool executed_plan = false; ///< true if this statement drove an executor tree
  bool plan_cache_hit = false;  ///< SELECT served from the shared plan cache
};

/// One statement's record, the single copy of what it did.
struct QueryRecord {
  uint64_t id = 0;           ///< monotonically increasing, never reused
  uint64_t session_id = 0;   ///< the Session that ran the statement
  std::string verb;          ///< "select", "insert", "explain", ...
  std::string status;        ///< "OK" or the StatusCode name
  std::string error;         ///< error message (empty on success)
  std::string sql;           ///< normalized statement text
  uint64_t wall_micros = 0;  ///< whole statement (parse excluded; see Database)
  uint64_t rows_returned = 0;
  size_t parallelism = 1;
  size_t batch_size = 0;
  ExecutionMetrics metrics;
  PlanProfile profile;  ///< invalid (empty) when no plan was executed

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
  /// reaches the threshold. The record must not be written after this call:
  /// snapshots share it. Thread-safe. Returns the assigned id.
  uint64_t Append(std::shared_ptr<QueryRecord> record);

  /// The retained records, oldest first. Thread-safe.
  std::vector<std::shared_ptr<const QueryRecord>> Snapshot() const;

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
  std::vector<std::shared_ptr<const QueryRecord>> ring_;
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
