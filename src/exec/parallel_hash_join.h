// Partitioned parallel hash join: workers partition the build side into
// per-worker buckets, a barrier, each worker builds one partition's hash
// table, a barrier, then all workers probe the shared read-only tables.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/gather.h"
#include "exec/hash_join.h"
#include "util/thread_pool.h"

namespace relopt {

/// \brief State shared by the workers of one parallel hash join.
///
/// Layout: `partitions[w][p]` holds the (key, row) pairs worker `w` routed to
/// partition `p` while draining its build fragment; after the first barrier,
/// worker `k` folds column `k` of that matrix into `tables[k]`. After the
/// second barrier every table is read-only and safely probed lock-free. The
/// number of partitions equals the number of workers.
///
/// The parallel join is in-memory only: there is no Grace spill under
/// parallelism (the serial HashJoinExecutor still spills at parallelism 1).
class SharedHashJoinState : public ParallelSharedState {
 public:
  using KeyedRow = std::pair<std::string, Tuple>;
  using HashTable = std::unordered_multimap<std::string, Tuple>;

  explicit SharedHashJoinState(size_t num_workers)
      : num_workers_(num_workers), barrier_(num_workers) {}

  /// Clears partitions, tables, and the error slot. Called by the Gather on
  /// the coordinating thread; no worker may be running.
  void Reset() override {
    partitions_.assign(num_workers_, std::vector<std::vector<KeyedRow>>(num_workers_));
    tables_.assign(num_workers_, HashTable{});
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = Status::OK();
  }

  size_t num_workers() const { return num_workers_; }
  Barrier& barrier() { return barrier_; }

  std::vector<std::vector<KeyedRow>>& worker_partitions(size_t w) { return partitions_[w]; }
  std::vector<KeyedRow>& partition(size_t w, size_t p) { return partitions_[w][p]; }
  HashTable& table(size_t p) { return tables_[p]; }

  /// Records the first error any worker hits; later errors are dropped.
  void RecordError(const Status& st) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!failed_.load(std::memory_order_relaxed)) {
      first_error_ = st;
      failed_.store(true, std::memory_order_release);
    }
  }
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Only meaningful after a barrier following the RecordError calls.
  Status first_error() const {
    std::lock_guard<std::mutex> lock(error_mu_);
    return first_error_;
  }

 private:
  const size_t num_workers_;
  Barrier barrier_;
  std::vector<std::vector<std::vector<KeyedRow>>> partitions_;
  std::vector<HashTable> tables_;

  std::atomic<bool> failed_{false};
  mutable std::mutex error_mu_;
  Status first_error_;
};

/// \brief One worker of a partitioned parallel hash join.
///
/// Init is SPMD: every sibling must reach both barriers on every path
/// (including error paths), so errors are parked in the shared state and
/// re-raised after the second barrier. Exactly `num_workers` siblings must be
/// running concurrently — the fragment builder and Gather guarantee this.
class ParallelHashJoinWorker : public Executor {
 public:
  ParallelHashJoinWorker(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                         std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                         const Expression* residual, bool output_probe_first,
                         std::shared_ptr<SharedHashJoinState> shared, size_t worker_idx);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  void Abandon() override {
    build_->Abandon();
    probe_->Abandon();
  }

 private:
  /// Drains this worker's build fragment batch at a time, routing rows into
  /// `shared_->partition(worker_idx_, hash(key) % P)`.
  Status PartitionBuildSide();
  /// Folds partition column `worker_idx_` into `shared_->table(worker_idx_)`.
  void BuildTable();

  ExecutorPtr build_;
  ExecutorPtr probe_;
  std::vector<size_t> build_keys_;
  std::vector<size_t> probe_keys_;
  const Expression* residual_;
  bool output_probe_first_;
  std::shared_ptr<SharedHashJoinState> shared_;
  size_t worker_idx_;

  std::hash<std::string> hasher_;
  std::vector<const Tuple*> matches_;
  size_t match_idx_ = 0;

  // Probe state, mirroring the serial join: probe keys are encoded for the
  // whole batch up front, then each row's match list is drained.
  TupleBatch probe_batch_;
  std::vector<std::optional<std::string>> batch_keys_;
  size_t probe_pos_ = 0;
  bool probe_done_ = false;
  const Tuple* batch_probe_row_ = nullptr;
};

}  // namespace relopt
