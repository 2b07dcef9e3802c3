// The System-R-lineage cost model: page fetches + W * tuples.
//
// Every formula here is the classic one from the foundational evaluations:
//   SeqScan        P
//   IndexScan      H + s*L + (clustered ? s*P : Yao(N*s, P))
//   NLJ            C(outer) + N_outer * C(inner)
//   BNLJ           C(outer) + ceil(P_outer/(B-2)) * C(inner)
//   INLJ           C(outer) + N_outer * (H + match fetches)
//   Sort           0 if P <= B, else 2*P*(1 + merge passes)
//   SMJ            sorts (if unsorted) + merge CPU
//   Hash           C(build)+C(probe) if fits, else + 2*(P_b+P_p) (Grace)
// where B is the operator memory in pages, H index height, L leaf pages.
#pragma once

#include <cstddef>
#include <cstdint>

#include "plan/physical_plan.h"

namespace relopt {

/// \brief Pure cost formulas; stateless apart from tuning parameters.
class CostModel {
 public:
  CostModel(size_t buffer_pages, double cpu_weight = Cost::kDefaultCpuWeight)
      : buffer_pages_(buffer_pages < 3 ? 3 : buffer_pages), cpu_weight_(cpu_weight) {}

  double cpu_weight() const { return cpu_weight_; }
  double Total(const Cost& c) const { return c.Total(cpu_weight_); }

  /// Pages needed to hold `rows` rows of `row_bytes` bytes each.
  static double EstimatePages(double rows, double row_bytes);

  /// Yao's approximation for distinct pages touched when fetching `k` rows
  /// at random from a table of `pages` pages: pages * (1 - (1 - 1/pages)^k).
  static double YaoPagesTouched(double k, double pages);

  // ---- scans ----
  Cost SeqScan(double rows, double pages) const;

  /// `matching_rows` rows selected through an index of height `height` with
  /// `leaf_pages` leaves, over a heap of `pages`; `selected_frac` is the
  /// fraction of the index scanned.
  Cost IndexScan(double matching_rows, double selected_frac, double table_rows, double pages,
                 int height, double leaf_pages, bool clustered) const;

  // ---- unary ----
  Cost Filter(double input_rows) const;
  Cost Project(double input_rows) const;
  Cost Aggregate(double input_rows, double groups) const;

  /// External sort of `rows`/`pages`; `runs_out`/`passes_out` (optional)
  /// report the predicted run count and merge passes.
  Cost Sort(double rows, double pages, double* runs_out = nullptr,
            double* passes_out = nullptr) const;

  // ---- joins (costs EXCLUDE child costs; the enumerator adds those) ----

  /// Tuple nested loop: outer re-runs the inner per row.
  /// `inner_rerun_cost` = cost of one full inner execution.
  Cost NestedLoop(double outer_rows, Cost inner_rerun_cost, double inner_rows) const;

  /// Block nested loop with `outer_pages` of outer input.
  Cost BlockNestedLoop(double outer_rows, double outer_pages, Cost inner_rerun_cost,
                       double inner_rows) const;

  /// Index nested loop probing an index on the inner base table.
  /// `matches_per_probe` = expected inner rows per outer row.
  Cost IndexNestedLoop(double outer_rows, int inner_index_height, double matches_per_probe,
                       double inner_pages, double inner_rows, bool clustered) const;

  /// Merge phase of sort-merge join (children already sorted).
  Cost MergeJoin(double left_rows, double right_rows, double output_rows) const;

  /// Hash join; Grace I/O added when the build side exceeds memory.
  Cost HashJoin(double build_rows, double build_pages, double probe_rows,
                double probe_pages) const;

  /// True if a hash build of `build_pages` fits in operator memory.
  bool HashBuildFits(double build_pages) const;

  /// Merge fan-in used by Sort (matches the executor).
  size_t MergeFanIn() const;
  /// Operator memory in pages (matches ExecContext::operator_memory_pages).
  size_t OperatorMemoryPages() const;

 private:
  size_t buffer_pages_;
  double cpu_weight_;
};

}  // namespace relopt
