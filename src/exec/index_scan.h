// Index range scan: B+tree iterator + heap reads by RID + residual predicate.
#pragma once

#include <optional>

#include "exec/executor.h"
#include "expr/vector_eval.h"

namespace relopt {

class IndexScanExecutor : public Executor {
 public:
  /// Bounds are encoded composite key prefixes (see types/key_codec.h);
  /// nullopt = open. `residual` (optional, bound to `schema`) compacts each
  /// batch of fetched rows. Each row holds the columns of `schema`, decoded
  /// and ended by a `#rid` as SeqScanExecutor's are.
  IndexScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table, IndexInfo* index,
                    std::optional<std::string> lo, bool lo_inclusive,
                    std::optional<std::string> hi, bool hi_inclusive, const Expression* residual);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  TableInfo* table_;
  IndexInfo* index_;
  std::optional<std::string> lo_;
  bool lo_inclusive_;
  std::optional<std::string> hi_;
  bool hi_inclusive_;
  BatchPredicate residual_;
  Result<ScanColumns> columns_;
  std::optional<BTree::Iterator> iter_;
  HeapFile::PageCursor cursor_;
  std::vector<Rid> rids_;  ///< the RIDs of the rows a fill reads
};

}  // namespace relopt
