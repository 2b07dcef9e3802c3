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

/// True if `e` is boolean whatever its operands are: a comparison, AND/OR/
/// NOT, IS [NOT] NULL, or a BOOL or NULL literal. Folding runs before
/// binding, so it may drop or stand alone only such an operand.
bool IsBoolean(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kComparison:
    case ExprKind::kLogical:
    case ExprKind::kIsNull:
      return true;
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*e).value();
      return v.is_null() || v.type() == TypeId::kBool;
    }
    default:
      return false;
  }
}

/// Evaluates a literal-only subtree; on any error, returns the original.
ExprPtr TryEval(ExprPtr expr) {
  Result<Value> v = EvalConstant(expr.get());
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
      std::vector<ExprPtr> ops;
      for (ExprPtr& c : children) ops.push_back(FoldConstants(std::move(c)));

      if (op == LogicalOp::kNot) {
        if (IsLiteral(*ops[0])) return TryEval(std::make_unique<LogicalExpr>(op, std::move(ops)));
        return std::make_unique<LogicalExpr>(op, std::move(ops));
      }

      // AND/OR simplification: FALSE decides an AND and TRUE an OR, and the
      // other literal is neutral. The binder rejects a non-boolean operand,
      // so one the fold would discard, or leave standing without its AND/OR,
      // must be boolean already; otherwise the expression stays as written.
      const bool decider = op == LogicalOp::kOr;
      auto decides = [&](const ExprPtr& c) { return IsBoolLiteral(*c, decider); };
      auto neutral = [&](const ExprPtr& c) { return IsBoolLiteral(*c, !decider); };
      if (std::any_of(ops.begin(), ops.end(), decides)) {
        if (std::all_of(ops.begin(), ops.end(), IsBoolean)) {
          return MakeLiteral(Value::Bool(decider));
        }
        return std::make_unique<LogicalExpr>(op, std::move(ops));
      }
      const auto num_neutral = std::count_if(ops.begin(), ops.end(), neutral);
      if (static_cast<size_t>(num_neutral) + 1 == ops.size() &&
          !IsBoolean(*std::find_if_not(ops.begin(), ops.end(), neutral))) {
        return std::make_unique<LogicalExpr>(op, std::move(ops));
      }
      std::erase_if(ops, neutral);
      if (ops.empty()) return MakeLiteral(Value::Bool(!decider));
      if (ops.size() == 1) return std::move(ops[0]);
      return std::make_unique<LogicalExpr>(op, std::move(ops));
    }
    case ExprKind::kCase: {
      // Fold every branch, drop arms whose WHEN folded to false/NULL, and
      // collapse the whole CASE when a leading WHEN folded to true. Every
      // WHEN so removed must be boolean, or the binder's error would vanish.
      auto* c = static_cast<CaseExpr*>(expr.get());
      std::vector<ExprPtr> arm_whens, arm_thens;
      for (size_t i = 0; i < c->num_arms(); ++i) {
        arm_whens.push_back(FoldConstants(c->when_at(i)->Clone()));
        arm_thens.push_back(FoldConstants(c->then_at(i)->Clone()));
      }
      std::vector<ExprPtr> whens, thens;
      for (size_t i = 0; i < arm_whens.size(); ++i) {
        ExprPtr& w = arm_whens[i];
        if (IsLiteral(*w) && IsBoolean(w)) {
          if (!IsBoolLiteral(*w, true)) continue;  // false/NULL arm never taken
          // The first live arm is always taken.
          if (whens.empty() && std::all_of(arm_whens.begin() + i + 1, arm_whens.end(), IsBoolean)) {
            return std::move(arm_thens[i]);
          }
        }
        whens.push_back(std::move(w));
        thens.push_back(std::move(arm_thens[i]));
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
