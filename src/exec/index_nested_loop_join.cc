#include "exec/index_nested_loop_join.h"

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
  std::string enc = EncodeKey(key_values_);
  // A probe on a prefix of the index key is a range scan over that prefix;
  // a full-key probe is a point scan.
  std::optional<std::string> hi;
  bool hi_inclusive;
  if (key_values_.size() == index_->key_columns.size()) {
    hi = enc;
    hi_inclusive = true;
  } else {
    std::string succ = PrefixSuccessor(enc);
    hi = succ.empty() ? std::nullopt : std::optional<std::string>(std::move(succ));
    hi_inclusive = false;
  }
  RELOPT_ASSIGN_OR_RETURN(BTree::Iterator it,
                          BTree::Iterator::Seek(index_->tree.get(), enc, true, std::move(hi),
                                                hi_inclusive));
  std::string k;
  Rid rid;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool more, it.Next(&k, &rid));
    if (!more) return Status::OK();
    matches_.push_back(rid);
  }
}

Result<bool> IndexNestedLoopJoinExecutor::KeyMatches() const {
  for (size_t i = 0; i < key_values_.size(); ++i) {
    RELOPT_ASSIGN_OR_RETURN(int c, inner_row_.At(index_->key_columns[i]).Compare(key_values_[i]));
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
    RELOPT_ASSIGN_OR_RETURN(inner_row_, inner_table_->GetTuple(matches_[match_idx_++]));
    RELOPT_ASSIGN_OR_RETURN(bool same_key, KeyMatches());
    if (same_key) out->AppendRow()->Concat(outer_.row()->values(), inner_row_.values());
  }
  return true;
}

}  // namespace relopt
