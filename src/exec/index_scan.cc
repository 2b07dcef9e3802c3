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
      residual_(residual),
      columns_(ScanColumns::Of(schema_, table->schema())),
      cursor_(table->heap()) {}

Status IndexScanExecutor::InitImpl() {
  RELOPT_RETURN_NOT_OK(columns_.status());
  RELOPT_ASSIGN_OR_RETURN(BTree::Iterator it,
                          BTree::Iterator::Seek(index_->tree.get(), lo_, lo_inclusive_, hi_,
                                                hi_inclusive_));
  iter_ = std::move(it);
  return Status::OK();
}

Result<bool> IndexScanExecutor::NextBatchImpl(TupleBatch* out) {
  return NextFiltered(&residual_, out, [&]() -> Result<bool> {
    // As many RIDs as `out` has room for, then their rows in one read.
    rids_.clear();
    std::string key;
    Rid rid;
    bool more = true;
    while (more && rids_.size() < out->Room()) {
      RELOPT_ASSIGN_OR_RETURN(more, iter_->Next(&key, &rid));
      if (more) rids_.push_back(rid);
    }
    RELOPT_RETURN_NOT_OK(cursor_.ReadBatch(rids_, table_->schema().NumColumns(),
                                           columns_->columns, out, columns_->with_rid));
    return more;
  });
}

}  // namespace relopt
