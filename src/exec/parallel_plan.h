// Parallel fragment planning: decides which physical subtrees can run as
// morsel-driven parallel fragments and builds the Gather + worker clones.
#pragma once

#include "exec/executor.h"
#include "plan/physical_plan.h"

namespace relopt {

/// \brief True if the subtree rooted at `plan` can run as a parallel
/// fragment: SeqScan (morsel-driven), Filter/Project over a parallelizable
/// child, HashJoin with both children parallelizable, and Aggregate
/// (partitioned hash aggregation, grouped or global) over a parallelizable
/// child. Everything else (index access, sorts, NLJ variants, Values)
/// stays serial above the Gather.
bool SubtreeParallelizable(const PhysicalNode& plan);

/// \brief Builds a Gather over `ctx->parallelism()` worker fragments for a
/// parallelizable subtree. Each fragment executor is registered against its
/// plan node, so EXPLAIN ANALYZE merges per-worker stats per node; the Gather
/// itself is not registered (its row count would double-count the subtree
/// root). Requires `ctx->thread_pool()` with at least `parallelism` threads.
Result<ExecutorPtr> BuildGatherExecutor(ExecContext* ctx, const PhysicalNode* plan);

}  // namespace relopt
