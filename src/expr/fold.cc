#include "expr/fold.h"

namespace relopt {

namespace {

bool IsLiteral(const Expression& e) { return e.kind() == ExprKind::kLiteral; }

bool IsBoolLiteral(const Expression& e, bool value) {
  if (!IsLiteral(e)) return false;
  const Value& v = static_cast<const LiteralExpr&>(e).value();
  return !v.is_null() && v.type() == TypeId::kBool && v.AsBool() == value;
}

/// Evaluates a literal-only subtree; on any error, returns the original.
ExprPtr TryEval(ExprPtr expr) {
  Result<Value> v = expr->Eval(Tuple());
  if (!v.ok()) return expr;
  return MakeLiteral(v.MoveValue());
}

}  // namespace

ExprPtr FoldConstants(ExprPtr expr) {
  if (!expr) return expr;
  switch (expr->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kAggregateCall:
    case ExprKind::kParameter:
      return expr;
    case ExprKind::kComparison: {
      auto* cmp = static_cast<ComparisonExpr*>(expr.get());
      ExprPtr l = FoldConstants(cmp->TakeLeft());
      ExprPtr r = FoldConstants(cmp->TakeRight());
      bool both_const = IsLiteral(*l) && IsLiteral(*r);
      ExprPtr folded = MakeComparison(cmp->op(), std::move(l), std::move(r));
      return both_const ? TryEval(std::move(folded)) : std::move(folded);
    }
    case ExprKind::kArithmetic: {
      auto* ar = static_cast<ArithmeticExpr*>(expr.get());
      ExprPtr l = FoldConstants(ar->left()->Clone());
      ExprPtr r = FoldConstants(ar->right()->Clone());
      bool both_const = IsLiteral(*l) && IsLiteral(*r);
      ExprPtr folded = std::make_unique<ArithmeticExpr>(ar->op(), std::move(l), std::move(r));
      return both_const ? TryEval(std::move(folded)) : std::move(folded);
    }
    case ExprKind::kIsNull: {
      auto* in = static_cast<IsNullExpr*>(expr.get());
      ExprPtr child = FoldConstants(in->child()->Clone());
      bool is_const = IsLiteral(*child);
      ExprPtr folded = std::make_unique<IsNullExpr>(std::move(child), in->negated());
      return is_const ? TryEval(std::move(folded)) : std::move(folded);
    }
    case ExprKind::kLogical: {
      auto* logical = static_cast<LogicalExpr*>(expr.get());
      LogicalOp op = logical->op();
      std::vector<ExprPtr> children = logical->TakeChildren();
      std::vector<ExprPtr> folded_children;
      for (ExprPtr& c : children) folded_children.push_back(FoldConstants(std::move(c)));

      if (op == LogicalOp::kNot) {
        if (IsLiteral(*folded_children[0])) {
          return TryEval(std::make_unique<LogicalExpr>(op, std::move(folded_children)));
        }
        return std::make_unique<LogicalExpr>(op, std::move(folded_children));
      }

      // AND/OR simplification.
      std::vector<ExprPtr> kept;
      for (ExprPtr& c : folded_children) {
        if (op == LogicalOp::kAnd) {
          if (IsBoolLiteral(*c, false)) return MakeLiteral(Value::Bool(false));
          if (IsBoolLiteral(*c, true)) continue;  // neutral
        } else {
          if (IsBoolLiteral(*c, true)) return MakeLiteral(Value::Bool(true));
          if (IsBoolLiteral(*c, false)) continue;  // neutral
        }
        kept.push_back(std::move(c));
      }
      if (kept.empty()) return MakeLiteral(Value::Bool(op == LogicalOp::kAnd));
      if (kept.size() == 1) return std::move(kept[0]);
      return std::make_unique<LogicalExpr>(op, std::move(kept));
    }
    case ExprKind::kCase: {
      // Fold every branch, drop arms whose WHEN folded to false/NULL, and
      // collapse the whole CASE when a leading WHEN folded to true.
      auto* c = static_cast<CaseExpr*>(expr.get());
      std::vector<ExprPtr> whens, thens;
      for (size_t i = 0; i < c->num_arms(); ++i) {
        ExprPtr w = FoldConstants(c->when_at(i)->Clone());
        ExprPtr t = FoldConstants(c->then_at(i)->Clone());
        if (IsLiteral(*w)) {
          const Value& v = static_cast<const LiteralExpr&>(*w).value();
          bool is_true = !v.is_null() && v.type() == TypeId::kBool && v.AsBool();
          if (is_true && whens.empty()) return t;  // first live arm always taken
          if (!is_true) continue;                  // false/NULL arm never taken
        }
        whens.push_back(std::move(w));
        thens.push_back(std::move(t));
      }
      ExprPtr else_expr =
          c->else_expr() != nullptr ? FoldConstants(c->else_expr()->Clone()) : nullptr;
      if (whens.empty()) {
        return else_expr != nullptr ? std::move(else_expr) : MakeLiteral(Value::Null());
      }
      return std::make_unique<CaseExpr>(std::move(whens), std::move(thens),
                                        std::move(else_expr));
    }
    case ExprKind::kFunctionCall: {
      auto* f = static_cast<FunctionCallExpr*>(expr.get());
      std::vector<ExprPtr> args;
      bool all_const = true;
      for (const ExprPtr& a : f->args()) {
        args.push_back(FoldConstants(a->Clone()));
        all_const = all_const && IsLiteral(*args.back());
      }
      ExprPtr folded = std::make_unique<FunctionCallExpr>(f->func(), std::move(args));
      return all_const ? TryEval(std::move(folded)) : std::move(folded);
    }
  }
  return expr;
}

}  // namespace relopt
