#include "exec/nested_loop_join.h"

namespace relopt {

Status NestedLoopJoinExecutor::InitImpl() {
  have_outer_ = false;
  return outer_.Init();
}

Result<bool> NestedLoopJoinExecutor::NextBatchImpl(TupleBatch* out) {
  return NextFiltered(&predicate_, out, [&] { return NextCandidates(out); });
}

Result<bool> NestedLoopJoinExecutor::NextCandidates(TupleBatch* out) {
  while (!out->Full()) {
    if (!have_outer_) {
      RELOPT_ASSIGN_OR_RETURN(bool has, outer_.Next());
      if (!has) return false;
      RELOPT_RETURN_NOT_OK(inner_.Init());
      have_outer_ = true;
    }
    RELOPT_ASSIGN_OR_RETURN(bool has, inner_.Next());
    if (!has) {
      have_outer_ = false;
      continue;
    }
    out->AppendRow()->Concat(outer_.row()->values(), inner_.row()->values());
  }
  return true;
}

}  // namespace relopt
