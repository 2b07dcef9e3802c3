// Tuple-at-a-time nested loop join (the 1977 baseline join method).
#pragma once

#include "exec/executor.h"

namespace relopt {

/// For every outer row, re-initializes and scans the whole inner input. The
/// inner child's re-scan really re-reads pages, so measured I/O matches the
/// classic N_outer * P_inner cost shape.
class NestedLoopJoinExecutor : public Executor {
 public:
  NestedLoopJoinExecutor(ExecContext* ctx, ExecutorPtr outer, ExecutorPtr inner,
                         const Expression* predicate)
      : Executor(ctx, Schema::Concat(outer->schema(), inner->schema())),
        outer_child_(std::move(outer)),
        inner_child_(std::move(inner)),
        outer_(outer_child_.get(), ctx->batch_size()),
        inner_(inner_child_.get(), ctx->batch_size()),
        predicate_(predicate) {}

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  ExecutorPtr outer_child_;
  ExecutorPtr inner_child_;
  RowCursor outer_;
  RowCursor inner_;
  const Expression* predicate_;
  bool have_outer_ = false;
};

}  // namespace relopt
