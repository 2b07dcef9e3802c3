// Builds an executor tree from a physical plan.
#pragma once

#include "exec/executor.h"
#include "plan/physical_plan.h"

namespace relopt {

class SharedStateRegistry;

/// \brief Which worker of a Gather's fragment an executor tree is built for:
/// worker `index` of the registry's worker count, sharing per-node state
/// (morsel cursors, join and aggregate partitions) with its siblings through
/// `shared`. The default is the one-worker build, whose scans, joins and
/// aggregates own their state.
struct FragmentWorker {
  SharedStateRegistry* shared = nullptr;
  size_t index = 0;
};

/// \brief Instantiates executors for `plan`, as worker `worker` of a
/// parallel fragment or, by default, as the one serial worker. The plan must
/// outlive the executor tree: executors reference the plan's expressions and
/// literal rows rather than copying them.
///
/// A serial build with `ctx->parallelism() > 1` turns each maximal subtree
/// that can run in parallel (SeqScan, Filter, Project, HashJoin and
/// Aggregate) into a Gather over `parallelism` workers, each built by this
/// function; the rest of the tree stays serial. `allow_parallel = false`
/// forbids Gathers in this subtree — used for inner children of nested-loop
/// joins, whose repeated re-Inits would relaunch workers per outer row.
Result<ExecutorPtr> BuildExecutor(ExecContext* ctx, const PhysicalNode* plan,
                                  bool allow_parallel = true, FragmentWorker worker = {});

}  // namespace relopt
