// Hash aggregation: the serial executor plus the ingest loop shared with the
// parallel partitioned aggregation workers (exec/parallel_aggregate.h). Both
// keep their groups in GroupTables (exec/group_table.h).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/group_table.h"
#include "expr/vector_eval.h"

namespace relopt {

/// \brief Folds input rows into GroupTables: the accumulate half of hash
/// aggregation, shared by the serial executor (one table) and the parallel
/// workers (one table per partition; a row goes to table
/// GroupTable::PartitionOf(hash, tables.size())).
///
/// Ingest first resolves the group id of every selected row of a batch — one
/// encoded key (GroupKeyComputer) and one hash per row — then evaluates each
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
  GroupKeyComputer key_computer_;
  std::vector<CompiledExprPtr> args_;  ///< null for COUNT(*)
  ColumnVec arg_vec_;
  std::vector<std::string> keys_;
  std::vector<GroupTable*> row_table_;
  std::vector<uint32_t> row_ids_;
  std::vector<AggState*> row_state_;
};

/// \brief Hash aggregation over one GroupTable. Groups on the encoded group
/// key, so NULLs group together (SQL GROUP BY semantics); output order is
/// deterministic (ascending encoded group key).
///
/// SQL semantics: COUNT(*) counts rows; COUNT/SUM/MIN/MAX/AVG ignore NULL
/// arguments; SUM/MIN/MAX/AVG over zero non-null inputs yield NULL. With no
/// GROUP BY, an empty input still produces one row.
///
/// Ingest pulls TupleBatches from the child (GroupIngest::Drain); emit fills
/// output batches a group row at a time.
class AggregateExecutor : public Executor {
 public:
  AggregateExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                    std::vector<const Expression*> group_exprs, std::vector<AggSpecExec> aggs);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  ExecutorPtr child_;
  std::vector<const Expression*> group_exprs_;
  std::vector<AggSpecExec> aggs_;
  GroupIngest ingest_;

  GroupTable groups_;
  std::vector<uint32_t> emit_order_;  ///< group ids, ascending encoded key
  size_t next_ = 0;
  bool done_build_ = false;
};

}  // namespace relopt
