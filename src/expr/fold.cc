#include "expr/fold.h"

#include <algorithm>

#include "expr/vector_eval.h"

namespace relopt {

namespace {

bool IsLiteral(const Expression& e) { return e.kind() == ExprKind::kLiteral; }

bool IsBoolLiteral(const Expression& e, bool value) {
  if (!IsLiteral(e)) return false;
  const Value& v = static_cast<const LiteralExpr&>(e).value();
  return !v.is_null() && v.type() == TypeId::kBool && v.AsBool() == value;
}

/// Evaluates a literal-only subtree into a literal of its bound type; on a
/// runtime error (an overflow), keeps it, so execution raises the error if a
/// row ever evaluates it.
ExprPtr TryEval(ExprPtr expr) {
  Result<Value> v = EvalConstant(expr.get());
  if (!v.ok()) return expr;
  return MakeLiteral(v.MoveValue());
}

/// AND/OR over folded boolean operands: FALSE decides an AND and TRUE an OR,
/// and the other literal is neutral.
ExprPtr FoldAndOr(ExprPtr expr) {
  auto* logical = static_cast<LogicalExpr*>(expr.get());
  const bool decider = logical->op() == LogicalOp::kOr;
  auto neutral = [&](const ExprPtr& c) { return IsBoolLiteral(*c, !decider); };
  const std::vector<ExprPtr>& children = logical->children();
  if (std::any_of(children.begin(), children.end(),
                  [&](const ExprPtr& c) { return IsBoolLiteral(*c, decider); })) {
    return MakeLiteral(Value::Bool(decider));
  }
  if (std::none_of(children.begin(), children.end(), neutral)) return expr;
  std::vector<ExprPtr> ops = logical->TakeChildren();
  std::erase_if(ops, neutral);
  if (ops.size() == 1) return std::move(ops[0]);
  return std::make_unique<LogicalExpr>(logical->op(), std::move(ops));
}

/// CASE over folded branches: an arm whose WHEN is a FALSE or NULL literal
/// is never taken, and a TRUE WHEN on the first arm left is always taken.
/// The CASE keeps its bound type, whatever branches are left (a DOUBLE
/// CASE's kernel widens an INT branch); a branch stands in for the whole
/// CASE only if it has that type or is a literal, which is cast to it.
ExprPtr FoldCase(ExprPtr expr) {
  auto* c = static_cast<CaseExpr*>(expr.get());
  const TypeId type = c->result_type();
  std::vector<size_t> live;
  for (size_t i = 0; i < c->num_arms(); ++i) {
    const Expression* when = c->when_at(i);
    if (!IsLiteral(*when) || IsBoolLiteral(*when, true)) live.push_back(i);
  }
  if (live.empty() || IsBoolLiteral(*c->when_at(live[0]), true)) {
    const Expression* taken = live.empty() ? c->else_expr() : c->then_at(live[0]);
    if (taken == nullptr) return MakeLiteral(Value::Null(type));
    if (taken->result_type() != type) {
      if (!IsLiteral(*taken)) return expr;
      return MakeLiteral(*static_cast<const LiteralExpr&>(*taken).value().CastTo(type));
    }
    std::vector<ExprPtr*> slots;
    c->ChildSlots(&slots);
    return std::move(**std::find_if(slots.begin(), slots.end(),
                                    [&](ExprPtr* s) { return s->get() == taken; }));
  }
  for (size_t i = c->num_arms(); i-- > 0;) {
    if (!std::binary_search(live.begin(), live.end(), i)) c->EraseArm(i);
  }
  return expr;
}

}  // namespace

ExprPtr FoldConstants(ExprPtr expr) {
  if (!expr || expr->kind() == ExprKind::kAggregateCall) return expr;
  std::vector<ExprPtr*> slots;
  expr->ChildSlots(&slots);
  if (slots.empty()) return expr;
  bool all_literal = true;
  for (ExprPtr* slot : slots) {
    *slot = FoldConstants(std::move(*slot));
    all_literal = all_literal && IsLiteral(**slot);
  }
  if (all_literal) return TryEval(std::move(expr));
  if (expr->kind() == ExprKind::kCase) return FoldCase(std::move(expr));
  if (expr->kind() == ExprKind::kLogical &&
      static_cast<const LogicalExpr&>(*expr).op() != LogicalOp::kNot) {
    return FoldAndOr(std::move(expr));
  }
  return expr;
}

}  // namespace relopt
