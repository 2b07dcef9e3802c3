#include "exec/block_nested_loop_join.h"

namespace relopt {

Status BlockNestedLoopJoinExecutor::InitImpl() {
  outer_done_ = false;
  block_active_ = false;
  block_.clear();
  return outer_.Init();
}

Result<bool> BlockNestedLoopJoinExecutor::LoadBlock() {
  block_.clear();
  size_t bytes = 0;
  do {
    RELOPT_ASSIGN_OR_RETURN(bool has, outer_.Next());
    if (!has) {
      outer_done_ = true;
      break;
    }
    bytes += outer_.row()->SerializedSize() + 8;
    block_.push_back(std::move(*outer_.row()));
  } while (bytes < block_bytes_);
  return !block_.empty();
}

Result<bool> BlockNestedLoopJoinExecutor::NextBatchImpl(TupleBatch* out) {
  return NextFiltered(&predicate_, out, [&] { return NextCandidates(out); });
}

Result<bool> BlockNestedLoopJoinExecutor::NextCandidates(TupleBatch* out) {
  while (!out->Full()) {
    if (!block_active_) {
      if (outer_done_) return false;
      RELOPT_ASSIGN_OR_RETURN(bool loaded, LoadBlock());
      if (!loaded) return false;
      RELOPT_RETURN_NOT_OK(inner_.Init());
      block_active_ = true;
      block_idx_ = block_.size();
    }
    // Advance the inner once the current inner row has met the whole block.
    if (block_idx_ == block_.size()) {
      RELOPT_ASSIGN_OR_RETURN(bool has, inner_.Next());
      if (!has) {
        block_active_ = false;  // next block
        continue;
      }
      block_idx_ = 0;
    }
    row_builder_.Build(block_[block_idx_++].values(), inner_.row()->values(), out->AppendRow());
  }
  return true;
}

}  // namespace relopt
