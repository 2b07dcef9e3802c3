#include "optimizer/access_path.h"

#include <algorithm>

#include "expr/conjuncts.h"
#include "util/str_util.h"

namespace relopt {

namespace {

/// Records one access-path decision if tracing is on.
void TracePath(PlanTrace* trace, const std::string& alias, std::string candidate, double rows,
               const Cost& cost, const char* action, std::string reason) {
  if (trace == nullptr) return;
  PlanTraceEvent ev;
  ev.phase = "access_path";
  ev.target = "{" + alias + "}";
  ev.candidate = std::move(candidate);
  ev.rows = rows;
  ev.cost = cost;
  ev.total_cost = cost.Total();
  ev.action = action;
  ev.reason = std::move(reason);
  trace->Add(std::move(ev));
}

/// The relation's cardinality-feedback signature: base table plus its
/// single-table conjuncts rendered with bare column names (alias-free, so
/// `fact f` and plain `fact` share observations).
std::string ScanSignatureOf(const BaseRelation& rel) {
  std::vector<std::string> sigs;
  sigs.reserve(rel.conjuncts.size());
  for (const ExprPtr& c : rel.conjuncts) {
    sigs.push_back(FeedbackStore::RenderConjunct(*c, /*strip_qualifiers=*/true));
  }
  return FeedbackStore::ScanSignature(rel.table->name(), std::move(sigs));
}

/// False for an INT beyond +-2^53: B+tree keys rank INTs as doubles, and
/// such an INT shares its double with other INTs.
bool ExactKey(const Value& v) {
  constexpr int64_t kExact = int64_t{1} << 53;
  return v.type() != TypeId::kInt64 || v.is_null() || (v.AsInt() > -kExact && v.AsInt() < kExact);
}

}  // namespace

Result<std::vector<AccessPath>> EnumerateAccessPaths(const QueryGraph& graph, int rel_index,
                                                     const SelectivityEstimator& estimator,
                                                     const CostModel& cost_model,
                                                     bool enable_index_scans,
                                                     PlanTrace* trace) {
  const BaseRelation& rel = graph.relations[rel_index];

  // Selectivity of every conjunct (shared across paths).
  std::vector<double> conj_sel;
  double total_sel = 1.0;
  for (const ExprPtr& c : rel.conjuncts) {
    double s = estimator.EstimatePredicate(*c);
    conj_sel.push_back(s);
    total_sel *= s;
  }
  double out_rows = std::max(rel.rows * total_sel, 0.0);

  // Cardinality feedback: a previous execution observed this exact (table,
  // conjuncts) combination — trust the measurement over the model, floored
  // at one expected row like every estimate.
  if (estimator.feedback() != nullptr) {
    std::optional<double> observed = estimator.FeedbackScanRows(ScanSignatureOf(rel));
    if (observed.has_value()) out_rows = std::max(*observed, 1.0);
  }

  std::vector<AccessPath> paths;

  // --- Sequential scan (always available). -------------------------------
  {
    AccessPath p;
    p.rel_index = rel_index;
    p.out_rows = out_rows;
    p.cost = cost_model.SeqScan(rel.rows, rel.pages);
    TracePath(trace, rel.alias, "SeqScan(" + rel.alias + ")", p.out_rows, p.cost, "kept", "");
    paths.push_back(std::move(p));
  }
  if (!enable_index_scans) return paths;

  // --- One bounded path per index. ----------------------------------------
  for (IndexInfo* index : rel.table->indexes()) {
    AccessPath p;
    p.rel_index = rel_index;
    p.index = index;

    // Match leading equalities, then one range.
    double bounded_sel = 1.0;
    std::vector<bool> used(rel.conjuncts.size(), false);
    // A bound on an inexact key also admits the other INTs of its double, so
    // it is inclusive and its conjunct stays in the residual to drop them.
    auto consume = [&](size_t ci, const Value& constant) {
      used[ci] = true;
      bounded_sel *= conj_sel[ci];
      if (ExactKey(constant)) p.consumed.push_back(ci);
    };
    bool open = true;  // still extending the equality prefix
    for (size_t key_pos = 0; key_pos < index->key_columns.size() && open; ++key_pos) {
      const std::string& key_col = rel.table->schema().ColumnAt(index->key_columns[key_pos]).name;
      // Equality on this key column?
      bool matched_eq = false;
      for (size_t ci = 0; ci < rel.conjuncts.size(); ++ci) {
        if (used[ci]) continue;
        std::optional<SargablePred> sarg = MatchSargable(*rel.conjuncts[ci]);
        if (!sarg.has_value() || !EqualsIgnoreCase(sarg->column, key_col)) continue;
        if (sarg->op == CompareOp::kEq) {
          p.lo_values.push_back(sarg->constant);
          p.hi_values.push_back(sarg->constant);
          consume(ci, sarg->constant);
          matched_eq = true;
          break;
        }
      }
      if (matched_eq) continue;
      // Range bounds on this key column terminate the prefix.
      open = false;
      Value lo_v, hi_v;
      bool have_lo = false, have_hi = false;
      for (size_t ci = 0; ci < rel.conjuncts.size(); ++ci) {
        if (used[ci]) continue;
        std::optional<SargablePred> sarg = MatchSargable(*rel.conjuncts[ci]);
        if (!sarg.has_value() || !EqualsIgnoreCase(sarg->column, key_col)) continue;
        if ((sarg->op == CompareOp::kGt || sarg->op == CompareOp::kGe) && !have_lo) {
          lo_v = sarg->constant;
          p.lo_inclusive = sarg->op == CompareOp::kGe || !ExactKey(lo_v);
          have_lo = true;
          consume(ci, lo_v);
        } else if ((sarg->op == CompareOp::kLt || sarg->op == CompareOp::kLe) && !have_hi) {
          hi_v = sarg->constant;
          p.hi_inclusive = sarg->op == CompareOp::kLe || !ExactKey(hi_v);
          have_hi = true;
          consume(ci, hi_v);
        }
      }
      if (have_lo) p.lo_values.push_back(lo_v);
      if (have_hi) p.hi_values.push_back(hi_v);
    }

    bool has_bounds = !p.lo_values.empty() || !p.hi_values.empty();
    if (!has_bounds && index->key_columns.empty()) {
      TracePath(trace, rel.alias, "IndexScan(" + rel.alias + " via " + index->name + ")", out_rows,
                Cost{}, "pruned", "no sargable bounds and no interesting key order");
      continue;
    }

    double matching = std::max(1.0, rel.rows * bounded_sel);
    p.cost = cost_model.IndexScan(matching, bounded_sel, rel.rows, rel.pages,
                                  index->tree->Height(),
                                  static_cast<double>(index->tree->NumLeafPages()),
                                  index->clustered);
    // Residual predicate CPU for non-consumed conjuncts.
    if (p.consumed.size() < rel.conjuncts.size()) {
      p.cost += cost_model.Filter(matching);
    }
    p.out_rows = out_rows;
    TracePath(trace, rel.alias, "IndexScan(" + rel.alias + " via " + index->name + ")", p.out_rows,
              p.cost, "kept", "");
    paths.push_back(std::move(p));
  }
  return paths;
}

Result<PhysicalPtr> BuildAccessPathPlan(const QueryGraph& graph, const AccessPath& path,
                                        std::vector<bool>* columns) {
  const BaseRelation& rel = graph.relations[path.rel_index];

  // Residual: every conjunct not consumed as an index bound.
  std::vector<ExprPtr> residual;
  for (size_t ci = 0; ci < rel.conjuncts.size(); ++ci) {
    if (std::find(path.consumed.begin(), path.consumed.end(), ci) != path.consumed.end()) {
      continue;
    }
    residual.push_back(rel.conjuncts[ci]->Clone());
  }
  ExprPtr residual_expr = CombineConjuncts(std::move(residual));

  // The scan emits the columns read above it and by its residual.
  Schema schema = rel.schema;
  if (columns != nullptr) {
    if (residual_expr) {
      RELOPT_RETURN_NOT_OK(residual_expr->ResolveColumns(rel.schema));
      std::vector<const ColumnRefExpr*> refs;
      residual_expr->CollectColumnRefs(&refs);
      for (const ColumnRefExpr* ref : refs) (*columns)[ref->bound_index()] = true;
    }
    schema = Schema();
    for (size_t c = 0; c < columns->size(); ++c) {
      if ((*columns)[c]) schema.AddColumn(rel.schema.ColumnAt(c));
    }
  }
  if (residual_expr) {
    RELOPT_RETURN_NOT_OK(residual_expr->ResolveColumns(schema));
  }

  // The node whose actual output feeds the feedback store is the one that
  // has applied ALL conjuncts: the Filter when one exists, else the scan.
  std::string feedback_key = ScanSignatureOf(rel);

  if (path.index == nullptr) {
    PhysicalPtr scan =
        std::make_unique<PhysSeqScan>(rel.table->name(), rel.alias, std::move(schema));
    scan->SetEstimates(path.out_rows, path.cost);
    if (residual_expr) {
      PhysicalPtr filter =
          std::make_unique<PhysFilter>(std::move(scan), std::move(residual_expr));
      filter->SetEstimates(path.out_rows, path.cost);
      filter->set_feedback_key(std::move(feedback_key));
      return filter;
    }
    scan->set_feedback_key(std::move(feedback_key));
    return scan;
  }

  auto scan = std::make_unique<PhysIndexScan>(rel.table->name(), rel.alias, path.index->name,
                                              std::move(schema));
  scan->lo_values = path.lo_values;
  scan->lo_inclusive = path.lo_inclusive;
  scan->hi_values = path.hi_values;
  scan->hi_inclusive = path.hi_inclusive;
  scan->residual = std::move(residual_expr);
  scan->SetEstimates(path.out_rows, path.cost);
  scan->set_feedback_key(std::move(feedback_key));
  return PhysicalPtr(std::move(scan));
}

}  // namespace relopt
