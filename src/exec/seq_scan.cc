#include "exec/seq_scan.h"

namespace relopt {

SeqScanExecutor::SeqScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table,
                                 std::shared_ptr<MorselSource> source)
    : Executor(ctx, std::move(schema)),
      source_(source != nullptr ? std::move(source)
                                : std::make_shared<MorselSource>(1, table->heap())),
      cursor_(source_->heap()) {}

Status SeqScanExecutor::InitImpl() {
  RELOPT_RETURN_NOT_OK(cursor_.Close());
  source_->ResetIfSerial();
  cur_page_ = 0;
  end_page_ = 0;
  done_ = false;
  return Status::OK();
}

Result<bool> SeqScanExecutor::NextRecord(Rid* rid, std::string_view* record) {
  while (true) {
    if (cursor_.IsOpen()) {
      RELOPT_ASSIGN_OR_RETURN(bool has, cursor_.Next(rid, record));
      if (has) return true;
      RELOPT_RETURN_NOT_OK(cursor_.Close());
    }
    if (done_) return false;
    if (cur_page_ >= end_page_) {
      if (!source_->NextMorsel(&cur_page_, &end_page_)) {
        done_ = true;
        return false;
      }
    }
    RELOPT_RETURN_NOT_OK(cursor_.Open(cur_page_++));
  }
}

Result<bool> SeqScanExecutor::NextBatchImpl(TupleBatch* out) {
  Rid rid;
  std::string_view bytes;
  size_t num_cols = schema_.NumColumns();
  while (!out->Full()) {
    RELOPT_ASSIGN_OR_RETURN(bool has, NextRecord(&rid, &bytes));
    if (!has) return false;
    RELOPT_RETURN_NOT_OK(out->AppendRow()->FillFrom(bytes, num_cols));
  }
  cursor_.Unlatch();
  return true;
}

}  // namespace relopt
