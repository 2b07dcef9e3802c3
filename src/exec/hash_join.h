// Hash join, run as one worker of n: a partitioned in-memory build, and at
// one worker Grace partitioning when the build side does not fit.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/gather.h"

namespace relopt {

/// \brief State shared by the workers of one hash join.
///
/// Layout: `partition(w, p)` holds the (key, row) pairs worker `w` routed to
/// partition `p` while draining its build input; after the first barrier,
/// worker `k` folds column `k` of that matrix into `table(k)`. After the
/// second barrier every table is read-only and probed lock-free. The number
/// of partitions equals the number of workers.
class SharedHashJoinState : public PhasedSharedState {
 public:
  using KeyedRow = std::pair<std::string, Tuple>;
  using HashTable = std::unordered_multimap<std::string, Tuple>;

  using PhasedSharedState::PhasedSharedState;

  /// Clears partitions, tables, and the error slot.
  void Reset() override {
    partitions_.assign(num_workers(), std::vector<std::vector<KeyedRow>>(num_workers()));
    tables_.assign(num_workers(), HashTable{});
    ClearError();
  }

  /// The partition of a join key. One worker has one partition and never
  /// hashes the key for it.
  size_t PartitionOf(const std::string& key) const {
    return num_workers() == 1 ? 0 : std::hash<std::string>{}(key) % num_workers();
  }
  std::vector<KeyedRow>& partition(size_t w, size_t p) { return partitions_[w][p]; }
  HashTable& table(size_t p) { return tables_[p]; }

 private:
  std::vector<std::vector<std::vector<KeyedRow>>> partitions_;
  std::vector<HashTable> tables_;
};

/// \brief Equi-join by hashing, as worker `w` of `n`. The first child is the
/// build side. Rows with NULL keys never match.
///
/// Init is SPMD: each worker partitions its build input by key, a barrier,
/// each worker builds one partition's table, a barrier, then every worker
/// probes with its own probe input. Every worker reaches both barriers on
/// every path (errors included), so errors are parked in the shared state
/// and re-raised after the second barrier. The Gather runs exactly `n`
/// siblings concurrently.
///
/// The one-worker join owns its state. If its build side exceeds the
/// operator memory budget, both sides are partitioned to scratch heaps by
/// key hash (Grace hash join) and each partition pair is joined in memory —
/// the partition writes and re-reads go through the buffer pool, so measured
/// I/O matches the classic 3(P_build + P_probe) shape. The parallel join is
/// in-memory only.
class HashJoinExecutor : public Executor {
 public:
  /// A null `shared` makes the one-worker join; otherwise this is worker
  /// `worker` of the siblings sharing `shared`.
  HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                   const Expression* residual, bool output_probe_first,
                   std::shared_ptr<SharedHashJoinState> shared = nullptr, size_t worker = 0);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  void Abandon() override {
    build_->Abandon();
    probe_->Abandon();
  }

 private:
  /// Drains the build input into this worker's partition row. `*bytes` sums
  /// the in-memory size of every build row, NULL keys included.
  Status PartitionBuildSide(size_t* bytes);
  /// Folds partition column `worker_` into `shared_->table(worker_)`.
  void BuildTable();
  /// Grace: writes the one worker's build rows and the whole probe input to
  /// `num_spill_parts_` scratch heap pairs by key hash, then loads the first
  /// partition.
  Status Spill();
  /// Loads spill partition `part_idx_`'s build rows into `shared_->table(0)`
  /// and opens its probe heap (skipping partitions empty on both sides).
  Status LoadPartition();
  /// Refills `probe_batch_` and its keys: from the probe child in memory, or
  /// from the current partition's probe heap under Grace (a batch never
  /// spans partitions). False once the probe side is exhausted.
  Result<bool> RefillProbeBatch();

  ExecutorPtr build_;
  ExecutorPtr probe_;
  std::vector<size_t> build_keys_;
  std::vector<size_t> probe_keys_;
  const Expression* residual_;
  bool output_probe_first_;
  std::shared_ptr<SharedHashJoinState> shared_;
  size_t worker_;

  // Probe state: probe keys are encoded for the whole batch up front, then
  // each probe row's match list is drained into the output batch.
  TupleBatch probe_batch_;
  std::vector<std::optional<std::string>> batch_keys_;
  size_t probe_pos_ = 0;        ///< next unprobed row in probe_batch_
  bool probe_done_ = false;     ///< the probe source has no more rows
  const Tuple* probe_row_ = nullptr;  ///< probe row owning matches_
  std::vector<const Tuple*> matches_;
  size_t match_idx_ = 0;

  // Grace state.
  bool grace_ = false;
  size_t num_spill_parts_ = 0;
  std::vector<HeapFile> build_parts_;
  std::vector<HeapFile> probe_parts_;
  size_t part_idx_ = 0;
  std::unique_ptr<HeapFile::Iterator> part_probe_iter_;
};

}  // namespace relopt
