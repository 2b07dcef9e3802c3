// Hash aggregation, run as one worker of n: each worker accumulates into
// its own GroupTable partitions (exec/group_table.h), then merges one
// partition column and emits it.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/gather.h"
#include "exec/group_table.h"
#include "expr/vector_eval.h"

namespace relopt {

/// \brief Folds input rows into GroupTables: the accumulate half of hash
/// aggregation, with one table per partition (a row goes to table
/// GroupTable::PartitionOf(hash, tables.size())).
///
/// Ingest first resolves the group id of every selected row of a batch — one
/// encoded key (KeyEncoder) and one hash per row — then evaluates each
/// aggregate argument once per batch through its compiled kernel and updates
/// the accumulators column by column. Within a group, rows still accumulate
/// in input order.
class GroupIngest {
 public:
  /// `group_exprs` and `aggs` must be bound and outlive this object.
  GroupIngest(const std::vector<const Expression*>* group_exprs,
              const std::vector<AggSpecExec>* aggs);

  /// Drains `child` (already initialized) into `tables`, `batch_size` rows
  /// at a time. Kernel fallback rows are counted into `*fallback_rows`.
  Status Drain(Executor* child, size_t batch_size, std::span<GroupTable> tables,
               uint64_t* fallback_rows);

 private:
  Status IngestBatch(const TupleBatch& batch, std::span<GroupTable> tables,
                     uint64_t* fallback_rows);
  /// Fills row_table_/row_state_ for the selected rows of the last keyed batch.
  void ResolveGroups(size_t n, std::span<GroupTable> tables);
  /// Folds evaluated argument column `vec` into aggregate `a` of every row.
  Status AccumulateColumn(size_t a, const ColumnVec& vec);

  const std::vector<const Expression*>* group_exprs_;
  const std::vector<AggSpecExec>* aggs_;
  KeyEncoder key_encoder_;
  std::vector<CompiledExprPtr> args_;  ///< null for COUNT(*)
  ColumnVec arg_vec_;
  std::vector<std::string> keys_;
  std::vector<GroupTable*> row_table_;
  std::vector<uint32_t> row_ids_;
  std::vector<AggState*> row_state_;
};

/// \brief State shared by the workers of one hash aggregation.
///
/// Layout: `partition(w, p)` holds the groups worker `w` accumulated for
/// partition `p` (GroupTable::PartitionOf(hash, P)) while draining its input;
/// after the first barrier, worker `k` adopts one table of column `k` of that
/// matrix as `merged(k)`, folds the others into it with their stored hashes,
/// and frees each as soon as it is folded. After the second barrier each
/// merged partition is owned read-only by its worker, which emits it.
/// Partition count equals worker count, and a group key lands in exactly one
/// partition, so groups are never split across emitters.
class SharedAggregateState : public PhasedSharedState {
 public:
  using PhasedSharedState::PhasedSharedState;

  /// Drops partitions, merged tables, and the error slot. Each worker sizes
  /// its own partition row when it starts accumulating.
  void Reset() override {
    partitions_.clear();
    partitions_.resize(num_workers());
    merged_.clear();
    merged_.resize(num_workers());
    ClearError();
  }

  std::vector<GroupTable>& worker_partitions(size_t w) { return partitions_[w]; }
  GroupTable& partition(size_t w, size_t p) { return partitions_[w][p]; }
  GroupTable& merged(size_t p) { return merged_[p]; }

 private:
  std::vector<std::vector<GroupTable>> partitions_;
  std::vector<GroupTable> merged_;
};

/// \brief Hash aggregation as worker `w` of `n`. Groups on the encoded group
/// key, so NULLs group together (SQL GROUP BY semantics).
///
/// SQL semantics: COUNT(*) counts rows; COUNT/SUM/MIN/MAX/AVG ignore NULL
/// arguments; SUM/MIN/MAX/AVG over zero non-null inputs yield NULL. With no
/// GROUP BY, an empty input still produces one row, emitted by the worker
/// owning the empty key's partition.
///
/// Init is SPMD: each worker ingests its input into its own partition row
/// (GroupIngest::Drain), a barrier, merges partition column `w`, a barrier,
/// then emits its merged partition. Every worker reaches both barriers on
/// every path (errors included), so errors are parked in the shared state
/// and re-raised after the second barrier. The Gather runs exactly `n`
/// siblings concurrently. The one-worker aggregate owns its state and emits
/// in ascending encoded group key order, which is deterministic; several
/// workers emit in group id order, since the Gather interleaves them anyway.
class AggregateExecutor : public Executor {
 public:
  /// A null `shared` makes the one-worker aggregate; otherwise this is
  /// worker `worker` of the siblings sharing `shared`.
  AggregateExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                    std::vector<const Expression*> group_exprs, std::vector<AggSpecExec> aggs,
                    std::shared_ptr<SharedAggregateState> shared = nullptr, size_t worker = 0);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  void Abandon() override { child_->Abandon(); }

 private:
  /// Drains the input into this worker's partition row.
  Status Accumulate();
  /// Folds partition column `worker_` into `shared_->merged(worker_)`.
  Status Merge();

  ExecutorPtr child_;
  std::vector<const Expression*> group_exprs_;
  std::vector<AggSpecExec> aggs_;
  std::shared_ptr<SharedAggregateState> shared_;
  size_t worker_;
  GroupIngest ingest_;

  /// This worker's merged partition; null until Init completes.
  const GroupTable* merged_ = nullptr;
  std::vector<uint32_t> key_order_;  ///< one worker: group ids, ascending key
  uint32_t next_ = 0;                ///< position of the next group to emit
};

}  // namespace relopt
