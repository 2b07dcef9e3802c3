// A row-at-a-time reference evaluator for bound expressions: the test oracle
// the compiled batch kernels (expr/vector_eval.h) are checked against. It
// is written independently of the kernels, straight from the SQL semantics
// the engine documents: three-valued logic with short circuits, NULL in ->
// NULL out, x/0 and x%0 -> NULL, checked int64 overflow -> OutOfRange,
// int64 widening to double where a CASE/COALESCE/NULLIF unifies branch
// types, and the same error messages.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "expr/expression.h"
#include "types/tuple.h"

namespace relopt::testing {

namespace reference_detail {

inline bool CompareHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

inline Value Widen(Value v, TypeId target) {
  if (v.is_null()) return Value::Null(target);
  if (target == TypeId::kDouble && v.type() == TypeId::kInt64) {
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  return v;
}

inline Result<Value> IntArithmetic(const Expression& e, ArithOp op, int64_t a, int64_t b) {
  int64_t out = 0;
  bool overflow = false;
  switch (op) {
    case ArithOp::kAdd:
      overflow = __builtin_add_overflow(a, b, &out);
      break;
    case ArithOp::kSub:
      overflow = __builtin_sub_overflow(a, b, &out);
      break;
    case ArithOp::kMul:
      overflow = __builtin_mul_overflow(a, b, &out);
      break;
    case ArithOp::kDiv:
      if (b == 0) return Value::Null(TypeId::kInt64);
      overflow = a == INT64_MIN && b == -1;
      if (!overflow) out = a / b;
      break;
    case ArithOp::kMod:
      if (b == 0) return Value::Null(TypeId::kInt64);
      out = b == -1 ? 0 : a % b;
      break;
  }
  if (overflow) return Status::OutOfRange("integer overflow in " + e.ToString());
  return Value::Int(out);
}

inline Value DoubleArithmetic(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return Value::Double(a + b);
    case ArithOp::kSub:
      return Value::Double(a - b);
    case ArithOp::kMul:
      return Value::Double(a * b);
    case ArithOp::kDiv:
      return b == 0 ? Value::Null(TypeId::kDouble) : Value::Double(a / b);
    case ArithOp::kMod:
      return b == 0 ? Value::Null(TypeId::kDouble) : Value::Double(std::fmod(a, b));
  }
  return Value::Null(TypeId::kDouble);
}

inline std::string MapAscii(std::string s, bool upper) {
  for (char& c : s) {
    if (upper && c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (!upper && c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace reference_detail

/// Evaluates bound expression `e` against one row.
inline Result<Value> ReferenceEval(const Expression& e, const Tuple& row) {
  using namespace reference_detail;
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      if (!ref.IsBound()) {
        return Status::Internal("evaluating unbound column reference " + ref.ToString());
      }
      if (static_cast<size_t>(ref.bound_index()) >= row.NumValues()) {
        return Status::Internal("column reference " + ref.ToString() + " out of range");
      }
      return row.At(static_cast<size_t>(ref.bound_index()));
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(e);
      RELOPT_ASSIGN_OR_RETURN(Value l, ReferenceEval(*cmp.left(), row));
      RELOPT_ASSIGN_OR_RETURN(Value r, ReferenceEval(*cmp.right(), row));
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
      RELOPT_ASSIGN_OR_RETURN(int c, l.Compare(r));
      return Value::Bool(CompareHolds(cmp.op(), c));
    }
    case ExprKind::kLogical: {
      const auto& logical = static_cast<const LogicalExpr&>(e);
      if (logical.op() == LogicalOp::kNot) {
        RELOPT_ASSIGN_OR_RETURN(Value v, ReferenceEval(*logical.children()[0], row));
        return v.is_null() ? Value::Null(TypeId::kBool) : Value::Bool(!v.AsBool());
      }
      const bool is_and = logical.op() == LogicalOp::kAnd;
      bool saw_null = false;
      for (const ExprPtr& child : logical.children()) {
        RELOPT_ASSIGN_OR_RETURN(Value v, ReferenceEval(*child, row));
        if (v.is_null()) {
          saw_null = true;
        } else if (v.AsBool() != is_and) {
          return Value::Bool(!is_and);  // AND meets false, OR meets true
        }
      }
      return saw_null ? Value::Null(TypeId::kBool) : Value::Bool(is_and);
    }
    case ExprKind::kArithmetic: {
      const auto& ar = static_cast<const ArithmeticExpr&>(e);
      RELOPT_ASSIGN_OR_RETURN(Value l, ReferenceEval(*ar.left(), row));
      RELOPT_ASSIGN_OR_RETURN(Value r, ReferenceEval(*ar.right(), row));
      if (l.is_null() || r.is_null()) return Value::Null(ar.result_type());
      if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
        return Status::TypeError("arithmetic on non-numeric operand in " + ar.ToString());
      }
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        return IntArithmetic(ar, ar.op(), l.AsInt(), r.AsInt());
      }
      return DoubleArithmetic(ar.op(), l.NumericAsDouble(), r.NumericAsDouble());
    }
    case ExprKind::kIsNull: {
      const auto& in = static_cast<const IsNullExpr&>(e);
      RELOPT_ASSIGN_OR_RETURN(Value v, ReferenceEval(*in.child(), row));
      return Value::Bool(v.is_null() != in.negated());
    }
    case ExprKind::kAggregateCall:
      return Status::Internal("aggregate call " + e.ToString() +
                              " evaluated directly (binder should have lifted it)");
    case ExprKind::kParameter:
      return Status::InvalidArgument(
          "unbound parameter $" +
          std::to_string(static_cast<const ParameterExpr&>(e).ordinal() + 1) +
          "; prepare the statement and supply values");
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      for (size_t i = 0; i < c.num_arms(); ++i) {
        RELOPT_ASSIGN_OR_RETURN(Value cond, ReferenceEval(*c.when_at(i), row));
        if (!cond.is_null() && cond.AsBool()) {
          RELOPT_ASSIGN_OR_RETURN(Value v, ReferenceEval(*c.then_at(i), row));
          return Widen(std::move(v), c.result_type());
        }
      }
      if (c.else_expr() == nullptr) return Value::Null(c.result_type());
      RELOPT_ASSIGN_OR_RETURN(Value v, ReferenceEval(*c.else_expr(), row));
      return Widen(std::move(v), c.result_type());
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(e);
      const TypeId type = f.result_type();
      if (f.func() == ScalarFunc::kCoalesce) {
        for (const ExprPtr& arg : f.args()) {
          RELOPT_ASSIGN_OR_RETURN(Value v, ReferenceEval(*arg, row));
          if (!v.is_null()) return Widen(std::move(v), type);
        }
        return Value::Null(type);
      }
      RELOPT_ASSIGN_OR_RETURN(Value v, ReferenceEval(*f.args()[0], row));
      if (f.func() == ScalarFunc::kNullIf) {
        RELOPT_ASSIGN_OR_RETURN(Value other, ReferenceEval(*f.args()[1], row));
        if (v.is_null() || other.is_null()) return Widen(std::move(v), type);
        RELOPT_ASSIGN_OR_RETURN(int c, v.Compare(other));
        return c == 0 ? Value::Null(type) : Widen(std::move(v), type);
      }
      if (v.is_null()) return Value::Null(type);
      const std::string name = ScalarFuncToString(f.func());
      if (f.func() == ScalarFunc::kAbs) {
        if (!IsNumeric(v.type())) {
          return Status::TypeError("abs on non-numeric operand in " + f.ToString());
        }
        if (v.type() == TypeId::kDouble) {
          return Value::Double(v.AsDouble() < 0 ? -v.AsDouble() : v.AsDouble());
        }
        if (v.AsInt() == INT64_MIN) {
          return Status::OutOfRange("integer overflow in " + f.ToString());
        }
        return Value::Int(v.AsInt() < 0 ? -v.AsInt() : v.AsInt());
      }
      if (v.type() != TypeId::kString) {
        return Status::TypeError(name + " on non-string operand in " + f.ToString());
      }
      if (f.func() == ScalarFunc::kLength) {
        return Value::Int(static_cast<int64_t>(v.AsString().size()));
      }
      return Value::String(MapAscii(v.AsString(), f.func() == ScalarFunc::kUpper));
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace relopt::testing
