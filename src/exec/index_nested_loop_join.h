// Index nested loop join: probe a B+tree on the inner table per outer row.
#pragma once

#include "exec/executor.h"

namespace relopt {

class IndexNestedLoopJoinExecutor : public Executor {
 public:
  /// `outer_key_exprs` (bound to the outer schema) produce the probe key;
  /// they must align with a prefix of `index`'s key columns. `residual` is
  /// bound to the concatenated schema.
  IndexNestedLoopJoinExecutor(ExecContext* ctx, ExecutorPtr outer, TableInfo* inner_table,
                              IndexInfo* index, Schema inner_schema,
                              const std::vector<ExprPtr>* outer_key_exprs,
                              const Expression* residual)
      : Executor(ctx, Schema::Concat(outer->schema(), inner_schema)),
        outer_child_(std::move(outer)),
        outer_(outer_child_.get(), ctx->batch_size()),
        inner_table_(inner_table),
        index_(index),
        outer_key_exprs_(outer_key_exprs),
        residual_(residual) {}

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  /// Collects the RIDs of the inner rows matching `outer_row`'s probe key
  /// into `matches_`.
  Status Probe(const Tuple& outer_row);

  ExecutorPtr outer_child_;
  RowCursor outer_;
  TableInfo* inner_table_;
  IndexInfo* index_;
  const std::vector<ExprPtr>* outer_key_exprs_;
  const Expression* residual_;

  std::vector<Value> key_values_;
  std::vector<Rid> matches_;
  size_t match_idx_ = 0;
  Tuple inner_row_;
};

}  // namespace relopt
