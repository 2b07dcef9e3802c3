// Logical rewrites that run before cost-based optimization.
#pragma once

#include "plan/logical_plan.h"
#include "util/result.h"

namespace relopt {

/// \brief Normalizes a bound logical plan, whose predicates the binder has
/// folded already (expr/fold.h):
///  * removes Filters whose predicate is the constant TRUE,
///  * replaces Filters whose predicate is FALSE/NULL with an empty Values node.
///
/// Conjunct splitting and predicate pushdown happen structurally inside the
/// query-graph extraction (optimizer/join_graph.h) — single-relation
/// conjuncts are applied at the access path, which *is* pushdown in the
/// System-R architecture. The `naive` planner skips all of this, giving the
/// rewrite-ablation baseline.
Result<LogicalPtr> NormalizeLogicalPlan(LogicalPtr plan);

}  // namespace relopt
