// Index nested loop join: probe a B+tree on the inner table per outer row.
#pragma once

#include "exec/executor.h"
#include "expr/vector_eval.h"

namespace relopt {

class IndexNestedLoopJoinExecutor : public Executor {
 public:
  /// The outer columns `outer_keys` give the probe key; they must align with
  /// a prefix of `index`'s key columns. Each fetched inner row is decoded
  /// into the columns of `inner_schema` (ScanColumns), which must hold those
  /// key columns; the output rows are the `columns` of
  /// `outer ++ inner_schema`, and `residual` is bound to them.
  IndexNestedLoopJoinExecutor(ExecContext* ctx, ExecutorPtr outer, TableInfo* inner_table,
                              IndexInfo* index, const Schema& inner_schema,
                              std::vector<size_t> outer_keys, const Expression* residual,
                              std::span<const uint32_t> columns);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  /// Fills `out` with candidate pairs; false once the outer is exhausted.
  Result<bool> NextCandidates(TupleBatch* out);
  /// Collects the RIDs of the inner rows matching `outer_row`'s probe key
  /// into `matches_`.
  Status Probe(const Tuple& outer_row);
  /// True if `inner_row`'s key columns equal the probe values. Index keys
  /// rank INTs as doubles, so an INT beyond +-2^53 can share another's key.
  Result<bool> KeyMatches(const Tuple& inner_row) const;

  ExecutorPtr outer_child_;
  RowCursor outer_;
  TableInfo* inner_table_;
  IndexInfo* index_;
  std::vector<size_t> outer_keys_;
  BatchPredicate residual_;
  Result<ScanColumns> inner_columns_;
  std::vector<size_t> inner_keys_;  ///< the probed key columns' positions in an inner row
  JoinRowBuilder row_builder_;

  std::vector<Value> key_values_;
  std::vector<Rid> matches_;
  size_t match_idx_ = 0;
  HeapFile::PageCursor inner_cursor_;
  TupleBatch inner_rows_;  ///< a chunk of the probe's matching rows
};

}  // namespace relopt
