#include "exec/sort_merge_join.h"

namespace relopt {

namespace {

/// True if any key column of `t` at `keys` is NULL.
bool HasNullKey(const Tuple& t, const std::vector<size_t>& keys) {
  for (size_t k : keys) {
    if (t.At(k).is_null()) return true;
  }
  return false;
}

/// Next row of `side` whose join key has no NULL (NULL keys never match).
Result<bool> NextNonNullKey(RowCursor* side, const std::vector<size_t>& keys) {
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, side->Next());
    if (!has || !HasNullKey(*side->row(), keys)) return has;
  }
}

}  // namespace

Status SortMergeJoinExecutor::InitImpl() {
  RELOPT_RETURN_NOT_OK(left_.Init());
  RELOPT_RETURN_NOT_OK(right_.Init());
  group_.clear();
  group_key_.clear();
  group_idx_ = 0;
  emitting_ = false;
  // Prime both sides (skipping NULL-key rows).
  RELOPT_ASSIGN_OR_RETURN(have_left_, AdvanceLeft());
  RELOPT_ASSIGN_OR_RETURN(have_right_, AdvanceRight());
  return Status::OK();
}

Result<bool> SortMergeJoinExecutor::AdvanceLeft() { return NextNonNullKey(&left_, left_keys_); }

Result<bool> SortMergeJoinExecutor::AdvanceRight() {
  return NextNonNullKey(&right_, right_keys_);
}

Result<int> SortMergeJoinExecutor::CompareKeys() const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    RELOPT_ASSIGN_OR_RETURN(int c,
                            left_.row()->At(left_keys_[i]).Compare(right_.row()->At(right_keys_[i])));
    if (c != 0) return c;
  }
  return 0;
}

Result<bool> SortMergeJoinExecutor::LeftMatchesGroup() const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    RELOPT_ASSIGN_OR_RETURN(int c, left_.row()->At(left_keys_[i]).Compare(group_key_[i]));
    if (c != 0) return false;
  }
  return true;
}

Result<bool> SortMergeJoinExecutor::NextBatchImpl(TupleBatch* out) {
  return NextFiltered(&residual_, out, [&] { return NextCandidates(out); });
}

Result<bool> SortMergeJoinExecutor::NextCandidates(TupleBatch* out) {
  while (!out->Full()) {
    if (emitting_) {
      // Emit the left row x group_ until the group is exhausted, then advance
      // the left side; if its key still equals the group key, replay.
      if (group_idx_ < group_.size()) {
        row_builder_.Build(left_.row()->values(), group_[group_idx_++].values(),
                           out->AppendRow());
        continue;
      }
      RELOPT_ASSIGN_OR_RETURN(have_left_, AdvanceLeft());
      if (have_left_) {
        RELOPT_ASSIGN_OR_RETURN(bool same, LeftMatchesGroup());
        if (same) {
          group_idx_ = 0;
          continue;
        }
      }
      emitting_ = false;
      group_.clear();
      group_key_.clear();
      continue;
    }

    if (!have_left_ || !have_right_) return false;
    RELOPT_ASSIGN_OR_RETURN(int c, CompareKeys());
    if (c < 0) {
      RELOPT_ASSIGN_OR_RETURN(have_left_, AdvanceLeft());
      continue;
    }
    if (c > 0) {
      RELOPT_ASSIGN_OR_RETURN(have_right_, AdvanceRight());
      continue;
    }
    // Equal: buffer the whole right group with this key.
    for (size_t k : right_keys_) group_key_.push_back(right_.row()->At(k));
    while (true) {
      group_.push_back(std::move(*right_.row()));
      RELOPT_ASSIGN_OR_RETURN(have_right_, AdvanceRight());
      if (!have_right_) break;
      RELOPT_ASSIGN_OR_RETURN(int same, CompareKeys());
      if (same != 0) break;
    }
    group_idx_ = 0;
    emitting_ = true;
  }
  return true;
}

}  // namespace relopt
