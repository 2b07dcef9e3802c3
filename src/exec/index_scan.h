// Index range scan: B+tree iterator + heap fetch + residual predicate.
#pragma once

#include <optional>

#include "exec/executor.h"
#include "expr/vector_eval.h"

namespace relopt {

class IndexScanExecutor : public Executor {
 public:
  /// Bounds are encoded composite key prefixes (see types/key_codec.h);
  /// nullopt = open. `residual` (optional, bound to `schema`) compacts each
  /// batch of fetched rows.
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
  std::optional<BTree::Iterator> iter_;
};

}  // namespace relopt
