// Values executor: emits literal rows.
#pragma once

#include "exec/executor.h"

namespace relopt {

class ValuesExecutor : public Executor {
 public:
  ValuesExecutor(ExecContext* ctx, Schema schema, const std::vector<Tuple>* rows)
      : Executor(ctx, std::move(schema)), rows_(rows) {}

  Status InitImpl() override {
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatchImpl(TupleBatch* out) override {
    while (!out->Full() && pos_ < rows_->size()) *out->AppendRow() = (*rows_)[pos_++];
    return pos_ < rows_->size();
  }

 private:
  const std::vector<Tuple>* rows_;
  size_t pos_ = 0;
};

}  // namespace relopt
