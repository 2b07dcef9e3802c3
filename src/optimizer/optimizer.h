// The optimizer facade: logical plan -> physical plan.
#pragma once

#include "catalog/catalog.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_enum.h"
#include "optimizer/rewriter.h"
#include "optimizer/selectivity.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"

namespace relopt {

struct OptimizerOptions {
  JoinEnumOptions join;
  StatsMode stats_mode = StatsMode::kHistogram;
  /// Weight of one tuple of CPU relative to one page I/O, for the batch
  /// engine the plans run on.
  double cpu_weight = Cost::kDefaultCpuWeight * Cost::kVectorizedCpuFactor;
  /// Buffer pool pages the cost model assumes (should match the real pool).
  size_t buffer_pages = 256;

  /// The CPU weight the cost model uses.
  double effective_cpu_weight() const { return cpu_weight; }
  /// Bypass all optimization: translate the binder's plan 1:1 (SeqScans,
  /// NLJs in FROM order, WHERE evaluated on top). The rewrite-ablation
  /// baseline.
  bool naive = false;
  /// Cardinality-feedback store to consult (not owned; nullptr = feedback
  /// off). Observed scan cardinalities and join selectivities override the
  /// statistical estimates for signatures the store has seen.
  const FeedbackStore* feedback = nullptr;
};

/// What the optimizer did (for EXPLAIN and the enumeration benchmarks).
struct OptimizeInfo {
  JoinEnumStats enum_stats;
  /// Optional decision log (not owned); when set, enumeration records every
  /// candidate considered and why losers were discarded.
  PlanTrace* trace = nullptr;
};

/// \brief Cost-based optimizer in the System-R architecture:
/// normalize -> query graph -> access paths -> join enumeration -> top
/// operators (aggregate / sort via interesting orders / project / limit).
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, OptimizerOptions options)
      : catalog_(catalog),
        options_(std::move(options)),
        cost_model_(options_.buffer_pages, options_.effective_cpu_weight()) {}

  /// Consumes the logical plan.
  Result<PhysicalPtr> Optimize(LogicalPtr plan, OptimizeInfo* info = nullptr);

  const CostModel& cost_model() const { return cost_model_; }

 private:
  struct Translated {
    PhysicalPtr plan;
    OrderSpec order;  ///< known output order
  };

  /// True if `node` roots a join block (Scan / Join / Filter-over-those).
  static bool IsJoinBlock(const LogicalNode& node);

  /// `reads` are the columns of `node`'s output its consumers read: the
  /// plan carries only those and what its own operators read.
  Result<Translated> Translate(LogicalPtr node, const OrderSpec& required_order,
                               std::vector<ColumnName> reads, OptimizeInfo* info);
  Result<Translated> TranslateJoinBlock(LogicalPtr node, const OrderSpec& required_order,
                                        const std::vector<ColumnName>& reads,
                                        OptimizeInfo* info);
  Result<PhysicalPtr> TranslateNaive(LogicalPtr node);

  const Catalog* catalog_;
  OptimizerOptions options_;
  CostModel cost_model_;
  AliasMap aliases_;  // rebuilt per Optimize() call
};

}  // namespace relopt
