// Access path selection: seq scan vs index scans per base relation.
#pragma once

#include "optimizer/cost_model.h"
#include "optimizer/join_graph.h"
#include "optimizer/plan_trace.h"
#include "optimizer/selectivity.h"
#include "plan/physical_plan.h"

namespace relopt {

/// One candidate way to read a base relation with its predicates applied.
struct AccessPath {
  int rel_index = -1;
  IndexInfo* index = nullptr;     ///< nullptr = sequential scan
  std::vector<Value> lo_values;   ///< composite prefix bounds (index paths)
  bool lo_inclusive = true;
  std::vector<Value> hi_values;
  bool hi_inclusive = true;
  /// Positions into the relation's conjunct list consumed as index bounds;
  /// the rest become residual/filter predicates.
  std::vector<size_t> consumed;

  double out_rows = 0;   ///< rows after ALL conjuncts
  Cost cost;             ///< total cost of producing them
};

/// \brief Enumerates access paths for one relation: always the sequential
/// scan, plus — per index — the bounded scan derived from sargable conjuncts
/// (leading-column equalities then one range) and, when the index key order
/// could be interesting, the unbounded index scan.
/// `trace` (optional) receives one "access_path" event per candidate
/// considered, including indexes rejected before costing.
Result<std::vector<AccessPath>> EnumerateAccessPaths(const QueryGraph& graph, int rel_index,
                                                     const SelectivityEstimator& estimator,
                                                     const CostModel& cost_model,
                                                     bool enable_index_scans,
                                                     PlanTrace* trace = nullptr);

/// Builds the physical subplan for one access path (scan node, residual
/// filter attached), with estimates filled in.
Result<PhysicalPtr> BuildAccessPathPlan(const QueryGraph& graph, const AccessPath& path);

}  // namespace relopt
