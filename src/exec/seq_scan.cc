#include "exec/seq_scan.h"

namespace relopt {

SeqScanExecutor::SeqScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table,
                                 std::shared_ptr<MorselSource> source)
    : Executor(ctx, std::move(schema)),
      source_(source != nullptr ? std::move(source)
                                : std::make_shared<MorselSource>(1, table->heap())),
      cursor_(source_->heap()),
      num_cols_(table->schema().NumColumns()),
      with_rid_(schema_.NumColumns() > num_cols_) {}

Status SeqScanExecutor::InitImpl() {
  RELOPT_RETURN_NOT_OK(cursor_.Close());
  source_->ResetIfSerial();
  done_ = false;
  return Status::OK();
}

Result<bool> SeqScanExecutor::NextBatchImpl(TupleBatch* out) {
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool more, cursor_.NextBatch(num_cols_, out, with_rid_));
    if (more) return true;
    PageNo begin, end;
    if (done_ || !source_->NextMorsel(&begin, &end)) {
      done_ = true;
      return false;
    }
    RELOPT_RETURN_NOT_OK(cursor_.Seek(begin, end));
  }
}

}  // namespace relopt
