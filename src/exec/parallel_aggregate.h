// Partitioned parallel hash aggregation: workers accumulate their fragment's
// rows into per-worker GroupTable partitions (chosen by the high bits of the
// encoded group key's hash), a barrier, each worker merges one disjoint
// partition column, a barrier, then every worker emits its own merged
// partition lock-free.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/aggregate.h"
#include "exec/gather.h"
#include "util/thread_pool.h"

namespace relopt {

/// \brief State shared by the workers of one parallel aggregation.
///
/// Layout: `partitions[w][p]` holds the groups worker `w` accumulated for
/// partition `p` (GroupTable::PartitionOf(hash, P)) while draining its
/// fragment; after the first barrier, worker `k` adopts one table of column
/// `k` of that matrix as `merged[k]`, folds the others into it with their
/// stored hashes, and frees each as soon as it is folded. After the second
/// barrier each merged partition is owned read-only by its worker, which
/// emits it. Partition count equals worker count, and a group key lands in
/// exactly one partition, so groups are never split across emitters.
class SharedAggregateState : public ParallelSharedState {
 public:
  explicit SharedAggregateState(size_t num_workers)
      : num_workers_(num_workers), barrier_(num_workers) {}

  /// Drops partitions, merged tables, and the error slot. Called by the
  /// Gather on the coordinating thread; no worker may be running. Each worker
  /// sizes its own partition row when it starts accumulating.
  void Reset() override {
    partitions_.clear();
    partitions_.resize(num_workers_);
    merged_.clear();
    merged_.resize(num_workers_);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = Status::OK();
  }

  size_t num_workers() const { return num_workers_; }
  Barrier& barrier() { return barrier_; }

  std::vector<GroupTable>& worker_partitions(size_t w) { return partitions_[w]; }
  GroupTable& partition(size_t w, size_t p) { return partitions_[w][p]; }
  GroupTable& merged(size_t p) { return merged_[p]; }

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
  std::vector<std::vector<GroupTable>> partitions_;
  std::vector<GroupTable> merged_;

  std::atomic<bool> failed_{false};
  mutable std::mutex error_mu_;
  Status first_error_;
};

/// \brief One worker of a partitioned parallel hash aggregation.
///
/// Init is SPMD: every sibling must reach both barriers on every path
/// (including error paths), so errors are parked in the shared state and
/// re-raised after the second barrier. Exactly `num_workers` siblings must be
/// running concurrently — the fragment builder and Gather guarantee this.
///
/// The accumulate phase pulls TupleBatches from the fragment
/// (GroupIngest::Drain) and emit fills output batches. A global aggregate
/// routes every row to the empty key's partition, whose owner also
/// emits the one default row when the input is empty (matching the serial
/// executor).
class ParallelAggregateWorker : public Executor {
 public:
  ParallelAggregateWorker(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                          std::vector<const Expression*> group_exprs,
                          std::vector<AggSpecExec> aggs,
                          std::shared_ptr<SharedAggregateState> shared, size_t worker_idx);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  void Abandon() override { child_->Abandon(); }

 private:
  /// Drains this worker's fragment, accumulating each row into
  /// `shared_->partition(worker_idx_, PartitionOf(hash of its key, P))`.
  Status AccumulatePhase();
  /// Folds partition column `worker_idx_` into `shared_->merged(worker_idx_)`.
  Status MergePhase();

  ExecutorPtr child_;
  std::vector<const Expression*> group_exprs_;
  std::vector<AggSpecExec> aggs_;
  std::shared_ptr<SharedAggregateState> shared_;
  size_t worker_idx_;

  GroupIngest ingest_;
  /// This worker's merged partition; null until Init completes.
  const GroupTable* merged_ = nullptr;
  uint32_t next_ = 0;  ///< next group id to emit
};

}  // namespace relopt
