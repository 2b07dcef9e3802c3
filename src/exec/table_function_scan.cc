#include "exec/table_function_scan.h"

#include "engine/table_functions.h"

namespace relopt {

Status TableFunctionScanExecutor::InitImpl() {
  RELOPT_ASSIGN_OR_RETURN(rows_,
                          EvalTableFunction(function_name_, ctx_->metrics_registry(),
                                            ctx_->query_history(), ctx_->plan_cache(),
                                            ctx_->feedback_store()));
  pos_ = 0;
  return Status::OK();
}

Result<bool> TableFunctionScanExecutor::NextBatchImpl(TupleBatch* out) {
  while (!out->Full() && pos_ < rows_.size()) *out->AppendRow() = std::move(rows_[pos_++]);
  return pos_ < rows_.size();
}

}  // namespace relopt
