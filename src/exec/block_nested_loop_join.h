// Block nested loop join: buffer a block of outer rows, scan inner per block.
// With one-row blocks it is the tuple-at-a-time nested loop join (the 1977
// baseline join method).
#pragma once

#include "exec/executor.h"
#include "expr/vector_eval.h"

namespace relopt {

/// Buffers up to `block_pages * kPageSize` bytes of outer rows (and at least
/// one row), then scans the inner once per block — the classic fix that turns
/// N_outer inner scans into ceil(P_outer / B) of them. `block_pages` = 0 makes
/// one-row blocks: the nested loop join, which re-scans the inner once per
/// outer row. The inner child's re-scan really re-reads pages, so measured
/// I/O matches the classic cost shapes.
class BlockNestedLoopJoinExecutor : public Executor {
 public:
  BlockNestedLoopJoinExecutor(ExecContext* ctx, ExecutorPtr outer, ExecutorPtr inner,
                              const Expression* predicate, size_t block_pages)
      : Executor(ctx, Schema::Concat(outer->schema(), inner->schema())),
        outer_child_(std::move(outer)),
        inner_child_(std::move(inner)),
        outer_(outer_child_.get(), ctx->batch_size()),
        inner_(inner_child_.get(), ctx->batch_size()),
        predicate_(predicate),
        block_bytes_(block_pages * kPageSize) {}

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  /// Fills `out` with candidate pairs; false once the outer is exhausted.
  Result<bool> NextCandidates(TupleBatch* out);
  /// Fills `block_` from the outer child; false if the outer is exhausted
  /// and nothing was buffered.
  Result<bool> LoadBlock();

  ExecutorPtr outer_child_;
  ExecutorPtr inner_child_;
  RowCursor outer_;
  RowCursor inner_;
  BatchPredicate predicate_;
  size_t block_bytes_;

  std::vector<Tuple> block_;
  bool outer_done_ = false;
  bool block_active_ = false;  // a block is loaded and the inner scan is live
  size_t block_idx_ = 0;       // next block row to join with the inner row
};

}  // namespace relopt
