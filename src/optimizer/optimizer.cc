#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "util/metrics.h"
#include "util/str_util.h"
#include "util/timer.h"

namespace relopt {

namespace {

/// Appends the columns `expr` reads to `reads`.
void AddReads(const Expression& expr, std::vector<ColumnName>* reads) {
  std::vector<const ColumnRefExpr*> refs;
  expr.CollectColumnRefs(&refs);
  for (const ColumnRefExpr* ref : refs) reads->push_back(ColumnName{ref->table(), ref->name()});
}

}  // namespace

bool Optimizer::IsJoinBlock(const LogicalNode& node) {
  switch (node.kind()) {
    case LogicalNodeKind::kScan:
      return true;
    case LogicalNodeKind::kJoin:
      return true;
    case LogicalNodeKind::kFilter:
      return IsJoinBlock(*node.child(0));
    default:
      return false;
  }
}

Result<PhysicalPtr> Optimizer::Optimize(LogicalPtr plan, OptimizeInfo* info) {
  OptimizeInfo local_info;
  if (info == nullptr) info = &local_info;

  // Engine-wide optimizer metrics: every optimization (traced or not) counts
  // its enumeration work and wall time into the global registry.
  const EngineMetrics& metrics = EngineMetrics::Get();
  const uint64_t start_nanos = MonotonicNanos();
  auto record = [&metrics, start_nanos, info]() {
    metrics.optimizer_optimizations->Add(1);
    metrics.optimizer_joins_costed->Add(info->enum_stats.joins_costed);
    metrics.optimizer_plans_kept->Add(info->enum_stats.dp_entries);
    metrics.optimizer_optimize_us->Observe(
        static_cast<double>(MonotonicNanos() - start_nanos) / 1000.0);
    // Join-enumeration counters only when a join search actually ran, so
    // single-table and non-join statements don't skew strategy counts.
    const JoinEnumStats& es = info->enum_stats;
    if (es.enumerated) {
      metrics.join_enum_joins_costed->Add(es.joins_costed);
      metrics.join_enum_dp_entries->Add(es.dp_entries);
      metrics.join_enum_subsets_visited->Add(es.subsets_visited);
      metrics.join_enum_csg_cmp_pairs->Add(es.csg_cmp_pairs);
      metrics.join_enum_disconnected_skips->Add(es.disconnected_subsets_skipped);
      if (es.budget_fallback) metrics.join_enum_budget_fallbacks->Add(1);
      const size_t strategy = static_cast<size_t>(es.strategy_used);
      if (strategy < EngineMetrics::kJoinEnumStrategies) {
        metrics.join_enum_strategy[strategy]->Add(1);
      }
    }
  };

  RELOPT_ASSIGN_OR_RETURN(plan, NormalizeLogicalPlan(std::move(plan)));
  aliases_.clear();

  if (options_.naive) {
    RELOPT_ASSIGN_OR_RETURN(PhysicalPtr phys, TranslateNaive(std::move(plan)));
    record();
    return phys;
  }

  // The statement's result reads every column of the root.
  std::vector<ColumnName> reads;
  for (const Column& col : plan->schema().columns()) {
    reads.push_back(ColumnName{col.table, col.name});
  }
  RELOPT_ASSIGN_OR_RETURN(Translated t,
                          Translate(std::move(plan), OrderSpec{}, std::move(reads), info));
  record();
  return std::move(t.plan);
}

Result<Optimizer::Translated> Optimizer::TranslateJoinBlock(LogicalPtr node,
                                                            const OrderSpec& required_order,
                                                            const std::vector<ColumnName>& reads,
                                                            OptimizeInfo* info) {
  RELOPT_ASSIGN_OR_RETURN(QueryGraph graph, BuildQueryGraph(std::move(node), catalog_));
  for (const BaseRelation& rel : graph.relations) {
    aliases_[ToLower(rel.alias)] = rel.table;
  }
  SelectivityEstimator estimator(&aliases_, options_.stats_mode, options_.feedback);
  JoinEnumOptions join_options = options_.join;
  join_options.trace = info->trace;
  JoinEnumerator enumerator(&graph, &estimator, &cost_model_, join_options);
  RELOPT_ASSIGN_OR_RETURN(JoinEnumResult result, enumerator.Run(required_order, reads));
  info->enum_stats = enumerator.stats();
  Translated t;
  t.plan = std::move(result.plan);
  t.order = result.order_satisfied && !required_order.empty() ? required_order : result.order;
  return t;
}

Result<Optimizer::Translated> Optimizer::Translate(LogicalPtr node,
                                                   const OrderSpec& required_order,
                                                   std::vector<ColumnName> reads,
                                                   OptimizeInfo* info) {
  if (IsJoinBlock(*node)) {
    return TranslateJoinBlock(std::move(node), required_order, reads, info);
  }

  switch (node->kind()) {
    case LogicalNodeKind::kValues: {
      auto* values = static_cast<LogicalValues*>(node.get());
      Translated t;
      auto phys = std::make_unique<PhysValues>(values->rows(), values->schema());
      phys->SetEstimates(static_cast<double>(values->rows().size()), Cost{});
      t.plan = std::move(phys);
      return t;
    }
    case LogicalNodeKind::kTableFunction: {
      auto* fn = static_cast<LogicalTableFunction*>(node.get());
      Translated t;
      auto phys = std::make_unique<PhysTableFunctionScan>(fn->function_name(), fn->alias(),
                                                          fn->schema());
      // Snapshot size is unknown until execution; a nominal in-memory guess.
      phys->SetEstimates(64.0, Cost{});
      t.plan = std::move(phys);
      return t;
    }
    case LogicalNodeKind::kLimit: {
      auto* limit = static_cast<LogicalLimit*>(node.get());
      int64_t n = limit->limit();
      RELOPT_ASSIGN_OR_RETURN(Translated child, Translate(node->TakeChild(0), required_order,
                                                          std::move(reads), info));
      double rows = std::min<double>(static_cast<double>(n), child.plan->est_rows());
      Cost cost = child.plan->est_cost();
      auto phys = std::make_unique<PhysLimit>(std::move(child.plan), n);
      phys->SetEstimates(rows, cost);
      Translated t;
      t.plan = std::move(phys);
      t.order = child.order;
      return t;
    }
    case LogicalNodeKind::kProject: {
      auto* project = static_cast<LogicalProject*>(node.get());
      std::vector<ExprPtr> exprs = std::move(project->mutable_exprs());
      Schema out_schema = project->schema();
      std::vector<ColumnName> child_reads;
      for (const ExprPtr& e : exprs) AddReads(*e, &child_reads);
      RELOPT_ASSIGN_OR_RETURN(Translated child, Translate(node->TakeChild(0), required_order,
                                                          std::move(child_reads), info));
      // Join reordering may have permuted or pruned the child's columns.
      for (ExprPtr& e : exprs) {
        RELOPT_RETURN_NOT_OK(e->ResolveColumns(child.plan->schema()));
      }
      double rows = child.plan->est_rows();
      Cost cost = child.plan->est_cost() + cost_model_.Project(rows);
      auto phys = std::make_unique<PhysProject>(std::move(child.plan), std::move(exprs),
                                                std::move(out_schema));
      phys->SetEstimates(rows, cost);
      Translated t;
      t.plan = std::move(phys);
      t.order = child.order;  // projection preserves row order
      return t;
    }
    case LogicalNodeKind::kFilter: {
      // A filter above a non-join-block child (e.g. HAVING over Aggregate).
      auto* filter = static_cast<LogicalFilter*>(node.get());
      ExprPtr pred = filter->TakePredicate();
      AddReads(*pred, &reads);
      RELOPT_ASSIGN_OR_RETURN(Translated child, Translate(node->TakeChild(0), required_order,
                                                          std::move(reads), info));
      RELOPT_RETURN_NOT_OK(pred->ResolveColumns(child.plan->schema()));
      SelectivityEstimator estimator(&aliases_, options_.stats_mode, options_.feedback);
      double sel = estimator.EstimatePredicate(*pred);
      double rows = child.plan->est_rows() * sel;
      Cost cost = child.plan->est_cost() + cost_model_.Filter(child.plan->est_rows());
      auto phys = std::make_unique<PhysFilter>(std::move(child.plan), std::move(pred));
      phys->SetEstimates(rows, cost);
      Translated t;
      t.plan = std::move(phys);
      t.order = child.order;
      return t;
    }
    case LogicalNodeKind::kAggregate: {
      auto* agg = static_cast<LogicalAggregate*>(node.get());
      std::vector<ExprPtr> group_by = std::move(agg->mutable_group_by());
      std::vector<PhysAggregate::Agg> aggs;
      for (AggregateSpec& spec : agg->mutable_aggs()) {
        aggs.push_back(PhysAggregate::Agg{spec.func, std::move(spec.arg)});
      }
      Schema out_schema = agg->schema();
      std::vector<ColumnName> child_reads;
      for (const ExprPtr& g : group_by) AddReads(*g, &child_reads);
      for (const PhysAggregate::Agg& a : aggs) {
        if (a.arg) AddReads(*a.arg, &child_reads);
      }
      // Aggregation consumes its input unordered (hash aggregate).
      RELOPT_ASSIGN_OR_RETURN(Translated child, Translate(node->TakeChild(0), OrderSpec{},
                                                          std::move(child_reads), info));
      for (ExprPtr& g : group_by) {
        RELOPT_RETURN_NOT_OK(g->ResolveColumns(child.plan->schema()));
      }
      for (PhysAggregate::Agg& a : aggs) {
        if (a.arg) {
          RELOPT_RETURN_NOT_OK(a.arg->ResolveColumns(child.plan->schema()));
        }
      }
      // Group count from catalog stats (NDVs, histograms, NULL groups).
      SelectivityEstimator estimator(&aliases_, options_.stats_mode, options_.feedback);
      double input_rows = std::max(child.plan->est_rows(), 1.0);
      double groups = estimator.EstimateGroupCount(group_by, input_rows);
      Cost cost = child.plan->est_cost() + cost_model_.Aggregate(input_rows, groups);
      auto phys = std::make_unique<PhysAggregate>(std::move(child.plan), std::move(group_by),
                                                  std::move(aggs), std::move(out_schema));
      phys->SetEstimates(groups, cost);
      Translated t;
      t.plan = std::move(phys);
      // Output is ordered by the encoded group key, but that ordering is not
      // expressible as a column OrderSpec here; report none.
      return t;
    }
    case LogicalNodeKind::kSort: {
      auto* sort = static_cast<LogicalSort*>(node.get());
      std::vector<SortKey> keys = std::move(sort->mutable_keys());
      // Derive the required order for the child when every key is a bare
      // column — that lets the join enumeration satisfy it for free.
      OrderSpec want;
      bool expressible = true;
      for (const SortKey& k : keys) {
        if (k.expr->kind() == ExprKind::kColumnRef) {
          const auto* ref = static_cast<const ColumnRefExpr*>(k.expr.get());
          want.push_back(OrderColumn{ref->table(), ref->name(), k.desc});
        } else {
          expressible = false;
          break;
        }
      }
      if (!expressible) want.clear();

      for (const SortKey& k : keys) AddReads(*k.expr, &reads);
      RELOPT_ASSIGN_OR_RETURN(Translated child,
                              Translate(node->TakeChild(0), want, std::move(reads), info));
      if (!want.empty() && OrderSatisfies(child.order, want)) {
        // Interesting order delivered: no Sort node needed.
        return child;
      }
      std::vector<PhysSort::Key> phys_keys;
      for (SortKey& k : keys) {
        RELOPT_RETURN_NOT_OK(k.expr->ResolveColumns(child.plan->schema()));
        phys_keys.push_back(PhysSort::Key{std::move(k.expr), k.desc});
      }
      double rows = child.plan->est_rows();
      double pages = CostModel::EstimatePages(std::max(rows, 1.0), 64.0);
      Cost cost = child.plan->est_cost() + cost_model_.Sort(rows, pages);
      auto phys = std::make_unique<PhysSort>(std::move(child.plan), std::move(phys_keys));
      phys->SetEstimates(rows, cost);
      Translated t;
      t.plan = std::move(phys);
      t.order = want;
      return t;
    }
    default:
      return Status::Internal("unexpected logical node in Translate: " + node->Describe());
  }
}

Result<PhysicalPtr> Optimizer::TranslateNaive(LogicalPtr node) {
  switch (node->kind()) {
    case LogicalNodeKind::kScan: {
      auto* scan = static_cast<LogicalScan*>(node.get());
      RELOPT_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(scan->table_name()));
      double rows = table->has_stats() ? static_cast<double>(table->stats().num_rows)
                                       : static_cast<double>(table->live_rows());
      double pages = static_cast<double>(table->heap()->NumPages());
      auto phys = std::make_unique<PhysSeqScan>(table->name(), scan->alias(), scan->schema());
      phys->SetEstimates(rows, cost_model_.SeqScan(rows, pages));
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kJoin: {
      auto* join = static_cast<LogicalJoin*>(node.get());
      ExprPtr pred = join->TakePredicate();
      RELOPT_ASSIGN_OR_RETURN(PhysicalPtr left, TranslateNaive(node->TakeChild(0)));
      RELOPT_ASSIGN_OR_RETURN(PhysicalPtr right, TranslateNaive(node->TakeChild(1)));
      double rows = left->est_rows() * right->est_rows();
      Cost cost = left->est_cost() + cost_model_.NestedLoop(left->est_rows(), right->est_cost(),
                                                            right->est_rows());
      // Every column of both sides: the naive plan prunes nothing.
      std::vector<uint32_t> columns =
          AllColumns(left->schema().NumColumns() + right->schema().NumColumns());
      if (pred) {
        RELOPT_RETURN_NOT_OK(pred->ResolveColumns(Schema::Concat(left->schema(), right->schema())));
        rows *= 1.0 / 3.0;
      }
      auto phys = std::make_unique<PhysNestedLoopJoin>(std::move(left), std::move(right),
                                                       std::move(pred), std::move(columns));
      phys->SetEstimates(rows, cost);
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kFilter: {
      auto* filter = static_cast<LogicalFilter*>(node.get());
      ExprPtr pred = filter->TakePredicate();
      RELOPT_ASSIGN_OR_RETURN(PhysicalPtr child, TranslateNaive(node->TakeChild(0)));
      RELOPT_RETURN_NOT_OK(pred->ResolveColumns(child->schema()));
      double rows = child->est_rows() / 3.0;
      Cost cost = child->est_cost() + cost_model_.Filter(child->est_rows());
      auto phys = std::make_unique<PhysFilter>(std::move(child), std::move(pred));
      phys->SetEstimates(rows, cost);
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kProject: {
      auto* project = static_cast<LogicalProject*>(node.get());
      std::vector<ExprPtr> exprs = std::move(project->mutable_exprs());
      Schema out_schema = project->schema();
      RELOPT_ASSIGN_OR_RETURN(PhysicalPtr child, TranslateNaive(node->TakeChild(0)));
      for (ExprPtr& e : exprs) {
        RELOPT_RETURN_NOT_OK(e->ResolveColumns(child->schema()));
      }
      double rows = child->est_rows();
      Cost cost = child->est_cost() + cost_model_.Project(rows);
      auto phys = std::make_unique<PhysProject>(std::move(child), std::move(exprs),
                                                std::move(out_schema));
      phys->SetEstimates(rows, cost);
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kAggregate: {
      auto* agg = static_cast<LogicalAggregate*>(node.get());
      std::vector<ExprPtr> group_by = std::move(agg->mutable_group_by());
      std::vector<PhysAggregate::Agg> aggs;
      for (AggregateSpec& spec : agg->mutable_aggs()) {
        aggs.push_back(PhysAggregate::Agg{spec.func, std::move(spec.arg)});
      }
      Schema out_schema = agg->schema();
      RELOPT_ASSIGN_OR_RETURN(PhysicalPtr child, TranslateNaive(node->TakeChild(0)));
      for (ExprPtr& g : group_by) {
        RELOPT_RETURN_NOT_OK(g->ResolveColumns(child->schema()));
      }
      for (PhysAggregate::Agg& a : aggs) {
        if (a.arg) {
          RELOPT_RETURN_NOT_OK(a.arg->ResolveColumns(child->schema()));
        }
      }
      double rows = std::max(1.0, child->est_rows() / 10.0);
      Cost cost = child->est_cost() + cost_model_.Aggregate(child->est_rows(), rows);
      auto phys = std::make_unique<PhysAggregate>(std::move(child), std::move(group_by),
                                                  std::move(aggs), std::move(out_schema));
      phys->SetEstimates(rows, cost);
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kSort: {
      auto* sort = static_cast<LogicalSort*>(node.get());
      std::vector<SortKey> keys = std::move(sort->mutable_keys());
      RELOPT_ASSIGN_OR_RETURN(PhysicalPtr child, TranslateNaive(node->TakeChild(0)));
      std::vector<PhysSort::Key> phys_keys;
      for (SortKey& k : keys) {
        RELOPT_RETURN_NOT_OK(k.expr->ResolveColumns(child->schema()));
        phys_keys.push_back(PhysSort::Key{std::move(k.expr), k.desc});
      }
      double rows = child->est_rows();
      Cost cost = child->est_cost() +
                  cost_model_.Sort(rows, CostModel::EstimatePages(std::max(rows, 1.0), 64.0));
      auto phys = std::make_unique<PhysSort>(std::move(child), std::move(phys_keys));
      phys->SetEstimates(rows, cost);
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kLimit: {
      auto* limit = static_cast<LogicalLimit*>(node.get());
      int64_t n = limit->limit();
      RELOPT_ASSIGN_OR_RETURN(PhysicalPtr child, TranslateNaive(node->TakeChild(0)));
      double rows = std::min<double>(static_cast<double>(n), child->est_rows());
      Cost cost = child->est_cost();
      auto phys = std::make_unique<PhysLimit>(std::move(child), n);
      phys->SetEstimates(rows, cost);
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kValues: {
      auto* values = static_cast<LogicalValues*>(node.get());
      auto phys = std::make_unique<PhysValues>(values->rows(), values->schema());
      phys->SetEstimates(static_cast<double>(values->rows().size()), Cost{});
      return PhysicalPtr(std::move(phys));
    }
    case LogicalNodeKind::kTableFunction: {
      auto* fn = static_cast<LogicalTableFunction*>(node.get());
      auto phys = std::make_unique<PhysTableFunctionScan>(fn->function_name(), fn->alias(),
                                                          fn->schema());
      phys->SetEstimates(64.0, Cost{});
      return PhysicalPtr(std::move(phys));
    }
  }
  return Status::Internal("unknown logical node kind");
}

}  // namespace relopt
