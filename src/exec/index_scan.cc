#include "exec/index_scan.h"

namespace relopt {

IndexScanExecutor::IndexScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table,
                                     IndexInfo* index, std::optional<std::string> lo,
                                     bool lo_inclusive, std::optional<std::string> hi,
                                     bool hi_inclusive, const Expression* residual)
    : Executor(ctx, std::move(schema)),
      table_(table),
      index_(index),
      lo_(std::move(lo)),
      lo_inclusive_(lo_inclusive),
      hi_(std::move(hi)),
      hi_inclusive_(hi_inclusive),
      residual_(residual) {}

Status IndexScanExecutor::InitImpl() {
  RELOPT_ASSIGN_OR_RETURN(BTree::Iterator it,
                          BTree::Iterator::Seek(index_->tree.get(), lo_, lo_inclusive_, hi_,
                                                hi_inclusive_));
  iter_ = std::move(it);
  return Status::OK();
}

Result<bool> IndexScanExecutor::NextBatchImpl(TupleBatch* out) {
  return NextFiltered(&residual_, out, [&]() -> Result<bool> {
    std::string key;
    Rid rid;
    while (!out->Full()) {
      RELOPT_ASSIGN_OR_RETURN(bool has, iter_->Next(&key, &rid));
      if (!has) return false;
      RELOPT_ASSIGN_OR_RETURN(*out->AppendRow(), table_->GetTuple(rid));
    }
    return true;
  });
}

}  // namespace relopt
