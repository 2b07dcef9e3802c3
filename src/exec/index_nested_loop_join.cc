#include "exec/index_nested_loop_join.h"

#include <algorithm>

#include "types/key_codec.h"

namespace relopt {

Status IndexNestedLoopJoinExecutor::InitImpl() {
  matches_.clear();
  match_idx_ = 0;
  return outer_.Init();
}

Status IndexNestedLoopJoinExecutor::Probe(const Tuple& outer_row) {
  matches_.clear();
  match_idx_ = 0;
  // Read the probe key; NULL keys never match (SQL equi-join).
  key_values_.clear();
  for (size_t col : outer_keys_) {
    const Value& v = outer_row.At(col);
    if (v.is_null()) return Status::OK();
    key_values_.push_back(v);
  }
  // A probe on a prefix of the index key is a range scan over that prefix;
  // a full-key probe is a point scan.
  KeyRange range = EncodeKeyRange(key_values_, true, key_values_, true,
                                  index_->key_columns.size());
  RELOPT_ASSIGN_OR_RETURN(BTree::Iterator it,
                          BTree::Iterator::Seek(index_->tree.get(), std::move(range.lo),
                                                range.lo_inclusive, std::move(range.hi),
                                                range.hi_inclusive));
  std::string k;
  Rid rid;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool more, it.Next(&k, &rid));
    if (!more) return Status::OK();
    matches_.push_back(rid);
  }
}

Result<bool> IndexNestedLoopJoinExecutor::KeyMatches(const Tuple& inner_row) const {
  for (size_t i = 0; i < key_values_.size(); ++i) {
    RELOPT_ASSIGN_OR_RETURN(int c, inner_row.At(index_->key_columns[i]).Compare(key_values_[i]));
    if (c != 0) return false;
  }
  return true;
}

Result<bool> IndexNestedLoopJoinExecutor::NextBatchImpl(TupleBatch* out) {
  return NextFiltered(&residual_, out, [&] { return NextCandidates(out); });
}

Result<bool> IndexNestedLoopJoinExecutor::NextCandidates(TupleBatch* out) {
  while (!out->Full()) {
    if (match_idx_ == matches_.size()) {
      RELOPT_ASSIGN_OR_RETURN(bool has, outer_.Next());
      if (!has) return false;
      RELOPT_RETURN_NOT_OK(Probe(*outer_.row()));
      continue;
    }
    // The probe's next rows, no more than `out` has room for.
    size_t n = std::min({matches_.size() - match_idx_, out->Room(), inner_rows_.capacity()});
    inner_rows_.Clear();
    RELOPT_RETURN_NOT_OK(inner_cursor_.ReadBatch(
        std::span<const Rid>(matches_).subspan(match_idx_, n),
        inner_table_->schema().NumColumns(), &inner_rows_));
    match_idx_ += n;
    for (size_t r = 0; r < n; ++r) {
      const Tuple& inner_row = inner_rows_.RowAt(r);
      RELOPT_ASSIGN_OR_RETURN(bool same_key, KeyMatches(inner_row));
      if (same_key) out->AppendRow()->Concat(outer_.row()->values(), inner_row.values());
    }
  }
  return true;
}

}  // namespace relopt
