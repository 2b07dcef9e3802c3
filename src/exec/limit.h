// Limit executor.
#pragma once

#include "exec/executor.h"

namespace relopt {

class LimitExecutor : public Executor {
 public:
  LimitExecutor(ExecContext* ctx, ExecutorPtr child, int64_t limit)
      : Executor(ctx, child->schema()), child_(std::move(child)), limit_(limit) {}

  Status InitImpl() override {
    emitted_ = 0;
    return child_->Init();
  }

  /// Passes the child batch through, truncating the selection when it
  /// crosses the limit (the batch-boundary case LIMIT must get right), and
  /// stops pulling the child once the limit is reached. The batch handed
  /// down is capped to the remaining row count so producers that pay per
  /// appended row (external-sort merge, scans) stop at the limit whatever
  /// the batch size; batch-capacity caps propagate through in-place
  /// operators (Filter) and batch-copying ones (Project).
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    if (emitted_ >= limit_) return false;
    const size_t full_capacity = out->capacity();
    const int64_t remaining = limit_ - emitted_;
    if (remaining < static_cast<int64_t>(full_capacity)) {
      out->SetCapacity(static_cast<size_t>(remaining));
    }
    Result<bool> child_has = child_->NextBatch(out);
    out->SetCapacity(full_capacity);
    RELOPT_ASSIGN_OR_RETURN(bool has, std::move(child_has));
    if (static_cast<int64_t>(out->NumSelected()) > remaining) {
      out->TruncateSelection(static_cast<size_t>(remaining));
    }
    emitted_ += static_cast<int64_t>(out->NumSelected());
    return has && emitted_ < limit_;
  }

 private:
  ExecutorPtr child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

}  // namespace relopt
