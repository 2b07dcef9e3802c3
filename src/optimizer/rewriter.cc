#include "optimizer/rewriter.h"

namespace relopt {

namespace {

/// True / false / null constant classification for predicates.
enum class PredConst { kTrue, kFalseOrNull, kOther };

PredConst Classify(const Expression& e) {
  if (e.kind() != ExprKind::kLiteral) return PredConst::kOther;
  const Value& v = static_cast<const LiteralExpr&>(e).value();
  if (v.is_null()) return PredConst::kFalseOrNull;
  if (v.type() == TypeId::kBool) return v.AsBool() ? PredConst::kTrue : PredConst::kFalseOrNull;
  return PredConst::kOther;
}

}  // namespace

Result<LogicalPtr> NormalizeLogicalPlan(LogicalPtr plan) {
  // Recurse into children first.
  for (size_t i = 0; i < plan->children().size(); ++i) {
    RELOPT_ASSIGN_OR_RETURN(LogicalPtr child, NormalizeLogicalPlan(plan->TakeChild(i)));
    plan->mutable_children()[i] = std::move(child);
  }

  if (plan->kind() == LogicalNodeKind::kFilter) {
    auto* filter = static_cast<LogicalFilter*>(plan.get());
    switch (Classify(*filter->predicate())) {
      case PredConst::kTrue:
        return plan->TakeChild(0);
      case PredConst::kFalseOrNull: {
        Schema schema = plan->schema();
        return LogicalPtr(std::make_unique<LogicalValues>(std::vector<Tuple>{}, std::move(schema)));
      }
      case PredConst::kOther:
        return plan;
    }
  }
  return plan;
}

}  // namespace relopt
