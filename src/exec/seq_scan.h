// Sequential scan over a base table's heap.
#pragma once

#include "exec/executor.h"

namespace relopt {

class SeqScanExecutor : public Executor {
 public:
  /// `schema` is the alias-qualified output schema.
  SeqScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  TableInfo* table_;
  // View-based iterator: one pool access per page (the pin is held across
  // NextBatch calls, the latch only within one), records deserialized
  // straight from the pinned frame with no per-row byte-buffer copy.
  HeapFile::ViewIterator iter_;
};

}  // namespace relopt
