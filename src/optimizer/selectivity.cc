#include "optimizer/selectivity.h"

#include <algorithm>
#include <cmath>

#include "util/str_util.h"

namespace relopt {

const ColumnStats* SelectivityEstimator::FindColumn(const std::string& alias,
                                                    const std::string& column) const {
  if (mode_ == StatsMode::kNoStats) return nullptr;
  TableInfo* table = nullptr;
  if (!alias.empty()) {
    auto it = aliases_->find(ToLower(alias));
    if (it == aliases_->end()) return nullptr;
    table = it->second;
  } else {
    // Unqualified reference: resolve to the unique relation holding the
    // column (binder guarantees uniqueness for valid queries).
    for (const auto& [name, candidate] : *aliases_) {
      if (candidate->schema().IndexOf(column).ok()) {
        if (table != nullptr) return nullptr;  // ambiguous
        table = candidate;
      }
    }
    if (table == nullptr) return nullptr;
  }
  if (!table->has_stats()) return nullptr;
  Result<size_t> idx = table->schema().IndexOf(column);
  if (!idx.ok()) return nullptr;
  if (*idx >= table->stats().columns.size()) return nullptr;
  return &table->stats().columns[*idx];
}

double SelectivityEstimator::ColumnNdv(const std::string& alias, const std::string& column) const {
  const ColumnStats* stats = FindColumn(alias, column);
  if (stats != nullptr && stats->ndv > 0) return static_cast<double>(stats->ndv);
  // Fallback: a tenth of the rows, at least 10 (the classic guess).
  if (!alias.empty()) {
    auto it = aliases_->find(ToLower(alias));
    if (it != aliases_->end() && it->second->has_stats()) {
      return std::max(10.0, static_cast<double>(it->second->stats().num_rows) / 10.0);
    }
  }
  return 10.0;
}

double SelectivityEstimator::EstimateGroupCount(const std::vector<ExprPtr>& group_by,
                                                double input_rows) const {
  if (group_by.empty()) return 1.0;
  input_rows = std::max(input_rows, 1.0);
  double groups = 1.0;
  for (const ExprPtr& g : group_by) {
    double d = kDefaultExprNdv;
    if (g->kind() == ExprKind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(g.get());
      const ColumnStats* stats = FindColumn(ref->table(), ref->name());
      if (stats != nullptr && stats->ndv > 0) {
        d = static_cast<double>(stats->ndv);
        if (mode_ == StatsMode::kHistogram && !stats->histogram.Empty()) {
          // Per-bucket distinct counts sum to the column's NDV at ANALYZE
          // time; prefer them so the estimate tracks the histogram's view.
          double hist_ndv = 0.0;
          for (const EquiDepthHistogram::Bucket& b : stats->histogram.buckets()) {
            hist_ndv += static_cast<double>(b.ndv);
          }
          if (hist_ndv > 0.0) d = hist_ndv;
        }
        if (stats->num_null > 0) d += 1.0;  // NULLs form one extra group
      } else {
        d = ColumnNdv(ref->table(), ref->name());
      }
    }
    groups *= std::max(1.0, d);
  }
  return std::clamp(groups, 1.0, input_rows);
}

double SelectivityEstimator::EstimateEquiJoin(const std::string& left_alias,
                                              const std::string& left_col,
                                              const std::string& right_alias,
                                              const std::string& right_col) const {
  double ndv_l = ColumnNdv(left_alias, left_col);
  double ndv_r = ColumnNdv(right_alias, right_col);
  // NULL keys never join: only the non-NULL fraction of each side
  // participates in the containment assumption.
  const ColumnStats* stats_l = FindColumn(left_alias, left_col);
  const ColumnStats* stats_r = FindColumn(right_alias, right_col);
  double nn_l = stats_l != nullptr ? 1.0 - stats_l->null_fraction() : 1.0;
  double nn_r = stats_r != nullptr ? 1.0 - stats_r->null_fraction() : 1.0;
  double sel = nn_l * nn_r / std::max(1.0, std::max(ndv_l, ndv_r));
  return std::clamp(sel, kMinSelectivity, 1.0);
}

double SelectivityEstimator::FloorFor(const SargablePred& pred) const {
  const ColumnStats* stats = FindColumn(pred.table, pred.column);
  if (stats != nullptr) {
    double total = static_cast<double>(stats->num_non_null + stats->num_null);
    if (total > 0) return std::min(1.0 / total, 1.0);
  }
  return kMinSelectivity;
}

double SelectivityEstimator::EstimateSargable(const SargablePred& pred) const {
  // Floor every estimate at one expected row: exactly-zero selectivities
  // collapse whole AND-chains and join cardinalities to zero and produce
  // degenerate zero-cost plans.
  return std::clamp(EstimateSargableRaw(pred), FloorFor(pred), 1.0);
}

double SelectivityEstimator::EstimateSargableRaw(const SargablePred& pred) const {
  const ColumnStats* stats = FindColumn(pred.table, pred.column);
  const bool have_hist =
      mode_ == StatsMode::kHistogram && stats != nullptr && !stats->histogram.Empty();

  double non_null_frac = stats != nullptr ? 1.0 - stats->null_fraction() : 1.0;

  switch (pred.op) {
    case CompareOp::kEq: {
      if (have_hist) return non_null_frac * stats->histogram.EstimateEq(pred.constant);
      if (stats != nullptr && stats->ndv > 0) {
        // Uniform over distinct values — but 0 outside [min, max] (the
        // caller floors this to one expected row).
        if (stats->min.has_value() && stats->max.has_value()) {
          Result<int> clo = pred.constant.Compare(*stats->min);
          Result<int> chi = pred.constant.Compare(*stats->max);
          if (clo.ok() && chi.ok() && (*clo < 0 || *chi > 0)) return 0.0;
        }
        return non_null_frac / static_cast<double>(stats->ndv);
      }
      return kDefaultEq;
    }
    case CompareOp::kNe: {
      // NULLs satisfy neither `=` nor `!=`: the complement of the equality
      // selectivity within the non-NULL fraction, not within all rows.
      SargablePred eq = pred;
      eq.op = CompareOp::kEq;
      return std::clamp(non_null_frac - EstimateSargableRaw(eq), 0.0, 1.0);
    }
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      bool lower_side = pred.op == CompareOp::kLt || pred.op == CompareOp::kLe;
      bool inclusive = pred.op == CompareOp::kLe || pred.op == CompareOp::kGe;
      if (have_hist) {
        // EstimateLess(v, incl) = fraction of rows with col < v (or <= v).
        double frac = lower_side ? stats->histogram.EstimateLess(pred.constant, inclusive)
                                 : 1.0 - stats->histogram.EstimateLess(pred.constant, !inclusive);
        return non_null_frac * std::clamp(frac, 0.0, 1.0);
      }
      if (stats != nullptr && stats->min.has_value() && stats->max.has_value() &&
          IsNumeric(stats->min->type()) && IsNumeric(pred.constant.type())) {
        double lo = stats->min->NumericAsDouble();
        double hi = stats->max->NumericAsDouble();
        double v = pred.constant.NumericAsDouble();
        if (hi <= lo) return kDefaultRange;
        double below = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
        return non_null_frac * (lower_side ? below : 1.0 - below);
      }
      return kDefaultRange;
    }
  }
  return kDefaultUnknown;
}

double SelectivityEstimator::EstimatePredicate(const Expression& expr) const {
  // Constant predicates.
  if (expr.kind() == ExprKind::kLiteral) {
    const Value& v = static_cast<const LiteralExpr&>(expr).value();
    if (v.is_null()) return 0.0;
    if (v.type() == TypeId::kBool) return v.AsBool() ? 1.0 : 0.0;
    return kDefaultUnknown;
  }

  if (expr.kind() == ExprKind::kLogical) {
    const auto& logical = static_cast<const LogicalExpr&>(expr);
    switch (logical.op()) {
      case LogicalOp::kAnd: {
        // Independence assumption: product.
        double s = 1.0;
        for (const ExprPtr& c : logical.children()) s *= EstimatePredicate(*c);
        return s;
      }
      case LogicalOp::kOr: {
        // Inclusion-exclusion under independence.
        double s = 0.0;
        for (const ExprPtr& c : logical.children()) {
          double cs = EstimatePredicate(*c);
          s = s + cs - s * cs;
        }
        return s;
      }
      case LogicalOp::kNot:
        return std::clamp(1.0 - EstimatePredicate(*logical.children()[0]), 0.0, 1.0);
    }
  }

  if (expr.kind() == ExprKind::kIsNull) {
    const auto& isnull = static_cast<const IsNullExpr&>(expr);
    double null_frac = 0.0;
    if (isnull.child()->kind() == ExprKind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(isnull.child());
      const ColumnStats* stats = FindColumn(ref->table(), ref->name());
      null_frac = stats != nullptr ? stats->null_fraction() : 0.1;
    } else {
      null_frac = 0.1;
    }
    return isnull.negated() ? 1.0 - null_frac : null_frac;
  }

  if (expr.kind() == ExprKind::kComparison) {
    std::optional<SargablePred> sarg = MatchSargable(expr);
    if (sarg.has_value()) return EstimateSargable(*sarg);
    std::optional<EquiJoinPred> join = MatchEquiJoin(expr);
    if (join.has_value()) {
      return EstimateEquiJoin(join->left_table, join->left_column, join->right_table,
                              join->right_column);
    }
    const auto& cmp = static_cast<const ComparisonExpr&>(expr);
    // col1 <op> col2 on the same table, or complex operands.
    return cmp.op() == CompareOp::kEq ? kDefaultEq : kDefaultRange;
  }

  return kDefaultUnknown;
}

}  // namespace relopt
