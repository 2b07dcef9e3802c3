// Selectivity estimation: System-R uniform defaults vs histograms.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "catalog/catalog.h"
#include "expr/conjuncts.h"
#include "expr/expression.h"
#include "optimizer/feedback.h"
#include "util/result.h"

namespace relopt {

/// How column statistics are used for estimation. The estimation-error
/// experiment (T5) toggles this.
enum class StatsMode {
  /// No statistics at all: the fixed magic constants of the earliest
  /// optimizers (1/10 for equality, 1/3 for ranges).
  kNoStats,
  /// System-R style: uniform-distribution assumption using NDV and min/max
  /// interpolation.
  kSystemR,
  /// Equi-depth histograms when available (falls back to kSystemR).
  kHistogram,
};

const char* StatsModeToString(StatsMode mode);

/// Maps FROM aliases to their base tables (the estimator's name context).
using AliasMap = std::map<std::string, TableInfo*>;

/// \brief Estimates predicate and join selectivities from catalog statistics.
class SelectivityEstimator {
 public:
  SelectivityEstimator(const AliasMap* aliases, StatsMode mode,
                       const FeedbackStore* feedback = nullptr)
      : aliases_(aliases), mode_(mode), feedback_(feedback) {}

  /// The cardinality-feedback store to consult, or nullptr (feedback off).
  const FeedbackStore* feedback() const { return feedback_; }
  /// Observed output rows for a scan signature, if the store has seen it.
  std::optional<double> FeedbackScanRows(const std::string& signature) const {
    return feedback_ == nullptr ? std::nullopt : feedback_->LookupScanRows(signature);
  }
  /// Observed selectivity for a join signature, if the store has seen it.
  std::optional<double> FeedbackJoinSelectivity(const std::string& signature) const {
    return feedback_ == nullptr ? std::nullopt : feedback_->LookupJoinSelectivity(signature);
  }

  /// Fraction of rows satisfying `expr` (a predicate over one or more
  /// relations; column refs are resolved through the alias map). Unknown
  /// shapes fall back to the classic default 1/3.
  double EstimatePredicate(const Expression& expr) const;

  /// Join selectivity of `left_alias.left_col = right_alias.right_col`:
  /// 1 / max(ndv_left, ndv_right), the System-R containment assumption.
  double EstimateEquiJoin(const std::string& left_alias, const std::string& left_col,
                          const std::string& right_alias, const std::string& right_col) const;

  /// Distinct values of a column (>=1); falls back to a tenth of the rows.
  double ColumnNdv(const std::string& alias, const std::string& column) const;

  /// \brief Estimated GROUP BY output cardinality over `input_rows` rows.
  ///
  /// Per grouping column: catalog NDV (histogram bucket distinct counts when
  /// in histogram mode), plus one extra group when the column has NULLs
  /// (NULLs group together). Non-column grouping expressions use
  /// kDefaultExprNdv. Multi-column keys multiply under the independence
  /// assumption; the product is clamped to [1, input_rows]. No GROUP BY
  /// (scalar aggregate) is exactly one group.
  double EstimateGroupCount(const std::vector<ExprPtr>& group_by, double input_rows) const;

  /// Column stats lookup; nullptr if the table has no stats or no column.
  const ColumnStats* FindColumn(const std::string& alias, const std::string& column) const;

  /// Defaults used when nothing better is known (exposed for tests).
  static constexpr double kDefaultEq = 0.1;
  static constexpr double kDefaultRange = 1.0 / 3.0;
  static constexpr double kDefaultUnknown = 1.0 / 3.0;
  /// Distinct values assumed for a non-column grouping expression.
  static constexpr double kDefaultExprNdv = 10.0;
  /// Selectivity floor when the table's row count is unknown. With stats the
  /// floor is one expected row (1 / num_rows): an exactly-zero selectivity
  /// multiplies through AND-chains and join cardinalities into degenerate
  /// zero-cost plans that win every comparison.
  static constexpr double kMinSelectivity = 1e-6;

 private:
  double EstimateSargable(const SargablePred& pred) const;
  /// Raw (unfloored) estimate; kNe needs the unfloored equality term.
  double EstimateSargableRaw(const SargablePred& pred) const;
  /// One-expected-row floor for the column's table; kMinSelectivity when the
  /// row count is unknown.
  double FloorFor(const SargablePred& pred) const;

  const AliasMap* aliases_;
  StatsMode mode_;
  const FeedbackStore* feedback_;
};

}  // namespace relopt
