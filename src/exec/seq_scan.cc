#include "exec/seq_scan.h"

namespace relopt {

SeqScanExecutor::SeqScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table)
    : Executor(ctx, std::move(schema)), table_(table), iter_(table->heap()) {}

Status SeqScanExecutor::InitImpl() { return iter_.Reset(); }

Result<bool> SeqScanExecutor::NextBatchImpl(TupleBatch* out) {
  Rid rid;
  std::string_view bytes;
  size_t num_cols = schema_.NumColumns();
  while (!out->Full()) {
    RELOPT_ASSIGN_OR_RETURN(bool has, iter_.Next(&rid, &bytes));
    if (!has) return false;
    RELOPT_RETURN_NOT_OK(out->AppendRow()->FillFrom(bytes, num_cols));
  }
  iter_.Unlatch();
  return true;
}

}  // namespace relopt
