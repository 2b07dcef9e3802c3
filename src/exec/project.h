// Projection executor: evaluates output expressions per row.
#pragma once

#include <algorithm>

#include "exec/executor.h"
#include "expr/vector_eval.h"

namespace relopt {

class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                  const std::vector<ExprPtr>* exprs)
      : Executor(ctx, std::move(out_schema)),
        child_(std::move(child)),
        projector_(exprs),
        in_batch_(ctx->batch_size()) {}

  Status InitImpl() override { return child_->Init(); }

  /// Pulls one child batch and projects its selected rows into reusable
  /// output slots. in_batch_ and out share the context batch size,
  /// so the projection always fits. When a parent (LIMIT) caps `out` below
  /// that, the cap is forwarded to the child so producers stop early too.
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    in_batch_.SetCapacity(std::min(ctx_->batch_size(), out->capacity()));
    RELOPT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_batch_));
    RELOPT_RETURN_NOT_OK(projector_.Project(in_batch_, out, &stats_.fallback_rows));
    return has;
  }

  void Abandon() override { child_->Abandon(); }

 private:
  ExecutorPtr child_;
  BatchProjector projector_;  ///< compiled column-wise kernels
  TupleBatch in_batch_;  ///< reusable child-output batch
};

}  // namespace relopt
