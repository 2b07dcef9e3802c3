// Sort-merge join over already-sorted inputs.
#pragma once

#include "exec/executor.h"

namespace relopt {

/// Merges two inputs sorted ascending on their join keys. Rows with NULL
/// join keys never match (SQL equi-join) and are skipped. Duplicate key
/// groups on the right side are buffered in memory (standard SMJ; group size
/// is bounded by the key's duplication, not the input size).
///
/// The merge stops reading one input as soon as the other ends, so it pulls
/// each input one row per batch: it reads exactly the rows it needs, and its
/// inputs' row counts and page reads do not depend on the batch size (LIMIT
/// caps its child's batch for the same reason).
class SortMergeJoinExecutor : public Executor {
 public:
  SortMergeJoinExecutor(ExecContext* ctx, ExecutorPtr left, ExecutorPtr right,
                        std::vector<size_t> left_keys, std::vector<size_t> right_keys,
                        const Expression* residual)
      : Executor(ctx, Schema::Concat(left->schema(), right->schema())),
        left_child_(std::move(left)),
        right_child_(std::move(right)),
        left_(left_child_.get(), 1),
        right_(right_child_.get(), 1),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(residual) {}

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  /// Advance a side to its next row without a NULL join key.
  Result<bool> AdvanceLeft();
  Result<bool> AdvanceRight();
  /// Compares the current left and right rows on the join keys.
  Result<int> CompareKeys() const;
  /// True if the current left row's key equals the buffered group's key.
  Result<bool> LeftMatchesGroup() const;

  ExecutorPtr left_child_;
  ExecutorPtr right_child_;
  RowCursor left_;
  RowCursor right_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  const Expression* residual_;

  bool have_left_ = false;
  bool have_right_ = false;

  // Current equal-key group from the right side, replayed per matching left
  // row.
  std::vector<Tuple> group_;
  std::vector<Value> group_key_;
  size_t group_idx_ = 0;
  bool emitting_ = false;
};

}  // namespace relopt
