// Filter executor.
#pragma once

#include "exec/executor.h"
#include "expr/vector_eval.h"

namespace relopt {

class FilterExecutor : public Executor {
 public:
  FilterExecutor(ExecContext* ctx, ExecutorPtr child, const Expression* predicate)
      : Executor(ctx, child->schema()),
        child_(std::move(child)),
        batch_predicate_(predicate) {}

  Status InitImpl() override { return child_->Init(); }

  /// Pulls one child batch into `out` and compacts its selection conjunct by
  /// conjunct. May legitimately return true with zero survivors; the caller
  /// pulls again.
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    RELOPT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    RELOPT_RETURN_NOT_OK(batch_predicate_.Filter(out, &stats_.fallback_rows));
    return has;
  }

  void Abandon() override { child_->Abandon(); }

 private:
  ExecutorPtr child_;
  BatchPredicate batch_predicate_;  ///< compiled conjunct kernels
};

}  // namespace relopt
