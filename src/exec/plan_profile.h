// PlanProfile: per-operator estimated-vs-actual snapshot of one execution.
//
// Built after a plan is drained, from the plan tree plus the OperatorStats
// the Executor base maintained (see exec/executor.h). Renders three ways:
//  - ToText(): the EXPLAIN ANALYZE tree (one line per operator, with
//    est_rows / actual_rows / Q-error / self page I/O / inclusive time);
//  - ToJson(): nested machine-readable profile (benchmark dumps);
//  - ToChromeTrace(): a chrome://tracing "trace event" JSON array of complete
//    ("ph":"X") spans, one per operator.
#pragma once

#include <string>
#include <vector>

#include "exec/executor.h"
#include "plan/physical_plan.h"

namespace relopt {

/// The Q-error of a cardinality estimate: max(est/actual, actual/est), with
/// both sides clamped to >= 1 so empty results stay finite. Always >= 1;
/// 1.0 means the estimate was exact.
double QError(double est_rows, double actual_rows);

/// One operator's slice of the profile (estimates + runtime counters).
struct OperatorProfile {
  std::string op;        ///< kind name, e.g. "HashJoin"
  std::string describe;  ///< PhysicalNode::Describe() text
  double est_rows = 0;
  Cost est_cost;
  OperatorStats stats;
  /// Executors merged into `stats`: the workers of a parallel fragment, which
  /// share each of the node's loops between them; 1 when serial.
  uint64_t executors = 0;
  std::vector<OperatorProfile> children;

  double q_error() const { return QError(est_rows, static_cast<double>(stats.rows_produced)); }
};

/// \brief Whole-plan profile: the operator tree with stats snapshots.
struct PlanProfile {
  OperatorProfile root;
  bool valid = false;  ///< false until an execution populated it

  /// EXPLAIN ANALYZE rendering: indented tree, one line per operator.
  std::string ToText() const;
  /// Nested JSON (schema documented in DESIGN.md "Observability").
  std::string ToJson() const;
  /// Chrome trace_event JSON array ({name, ph, ts, dur, pid, tid} objects,
  /// microsecond timestamps) loadable in chrome://tracing.
  std::string ToChromeTrace() const;

  /// Every operator's stats merged (OperatorStats::Merge): the
  /// self-attributed page and pool counters sum to the plan's totals.
  OperatorStats Total() const;
  /// Number of operators in the tree.
  size_t NumOperators() const;
};

/// Calls `fn` on `p` and every operator below it, pre-order: a node before
/// its children, children in plan order.
template <typename Fn>
void ForEachOperator(const OperatorProfile& p, Fn&& fn) {
  fn(p);
  for (const OperatorProfile& c : p.children) ForEachOperator(c, fn);
}

/// Snapshots `plan`'s executor stats out of `ctx` (which must still own the
/// executor tree built for `plan`). Nodes with no registered executor get
/// zeroed stats.
PlanProfile BuildPlanProfile(const PhysicalNode& plan, const ExecContext& ctx);

}  // namespace relopt
