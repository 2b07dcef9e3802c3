// Expression trees: literals, column references, comparisons, arithmetic,
// boolean logic, IS NULL, and aggregate calls.
//
// Column references carry their source names (qualifier + column) and are
// *bound* against a concrete Schema before evaluation; rebinding against a
// different schema is how the rewriter moves predicates around the plan.
// Evaluation follows SQL three-valued logic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"
#include "util/result.h"

namespace relopt {

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kComparison,
  kLogical,
  kArithmetic,
  kIsNull,
  kAggregateCall,
  kParameter,
  kCase,
  kFunctionCall,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp { kAnd, kOr, kNot };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class AggFunc { kCountStar, kCount, kSum, kMin, kMax, kAvg };
enum class ScalarFunc { kAbs, kLength, kUpper, kLower, kCoalesce, kNullIf };

const char* CompareOpToString(CompareOp op);
const char* ArithOpToString(ArithOp op);
const char* AggFuncToString(AggFunc f);
const char* ScalarFuncToString(ScalarFunc f);

/// Flips a comparison for operand swap: a < b  <=>  b > a.
CompareOp SwapCompareOp(CompareOp op);
/// Logical negation: NOT (a < b)  <=>  a >= b.
CompareOp NegateCompareOp(CompareOp op);

class ColumnRefExpr;

/// \brief Abstract expression node.
class Expression {
 public:
  explicit Expression(ExprKind kind) : kind_(kind) {}
  virtual ~Expression() = default;

  ExprKind kind() const { return kind_; }

  /// Evaluates against one input row. Must be bound first.
  virtual Result<Value> Eval(const Tuple& tuple) const = 0;

  /// Resolves column references against `schema` and computes result types.
  virtual Status Bind(const Schema& schema) = 0;

  /// Deep copy (bound state included).
  virtual std::unique_ptr<Expression> Clone() const = 0;

  /// SQL-ish rendering for EXPLAIN.
  virtual std::string ToString() const = 0;

  /// Result type; valid after a successful Bind.
  TypeId result_type() const { return result_type_; }

  /// Appends the owning slots of this node's direct children in source
  /// order (a CASE lists each WHEN before its THEN). Every tree walk below,
  /// and rewrites that replace whole nodes (prepared-statement parameter
  /// substitution), go through these slots; the default is a leaf.
  virtual void ChildSlots(std::vector<std::unique_ptr<Expression>*>* out) { (void)out; }

  /// Appends every column reference in the tree (pre-order).
  void CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const;
  void CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out);

  /// True if the tree contains an aggregate call.
  bool ContainsAggregate() const;

 protected:
  ExprKind kind_;
  TypeId result_type_ = TypeId::kBool;
};

using ExprPtr = std::unique_ptr<Expression>;

/// Constant value.
class LiteralExpr : public Expression {
 public:
  explicit LiteralExpr(Value value) : Expression(ExprKind::kLiteral), value_(std::move(value)) {
    result_type_ = value_.type();
  }

  const Value& value() const { return value_; }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

 private:
  Value value_;
};

/// Reference to a column, by (qualifier, name); bound to a position.
class ColumnRefExpr : public Expression {
 public:
  ColumnRefExpr(std::string table, std::string name)
      : Expression(ExprKind::kColumnRef), table_(std::move(table)), name_(std::move(name)) {}

  const std::string& table() const { return table_; }
  const std::string& name() const { return name_; }
  /// Rewrites the qualifier (feedback signatures render clones with bare
  /// column names); invalidates nothing — binding is positional.
  void set_table(std::string table) { table_ = std::move(table); }
  int bound_index() const { return bound_index_; }
  bool IsBound() const { return bound_index_ >= 0; }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

 private:
  std::string table_;
  std::string name_;
  int bound_index_ = -1;
};

/// Binary comparison with SQL NULL semantics (NULL operand -> NULL).
class ComparisonExpr : public Expression {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expression(ExprKind::kComparison),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {
    result_type_ = TypeId::kBool;
  }

  CompareOp op() const { return op_; }
  const Expression* left() const { return left_.get(); }
  const Expression* right() const { return right_.get(); }
  ExprPtr TakeLeft() { return std::move(left_); }
  ExprPtr TakeRight() { return std::move(right_); }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  void ChildSlots(std::vector<ExprPtr*>* out) override {
    out->push_back(&left_);
    out->push_back(&right_);
  }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// AND / OR / NOT with three-valued logic.
class LogicalExpr : public Expression {
 public:
  /// NOT takes one child; AND/OR take two.
  LogicalExpr(LogicalOp op, std::vector<ExprPtr> children)
      : Expression(ExprKind::kLogical), op_(op), children_(std::move(children)) {
    result_type_ = TypeId::kBool;
  }

  LogicalOp op() const { return op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  std::vector<ExprPtr> TakeChildren() { return std::move(children_); }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  void ChildSlots(std::vector<ExprPtr*>* out) override {
    for (ExprPtr& child : children_) out->push_back(&child);
  }

 private:
  LogicalOp op_;
  std::vector<ExprPtr> children_;
};

/// Outcome of one int64 arithmetic step; see IntArith.
enum class IntArithOutcome { kValue, kNull, kOverflow };

/// \brief `a op b` over int64, checked, as both evaluators compute it: x/0
/// and x%0 are NULL; +, -, * and INT64_MIN / -1 overflow (the caller raises
/// OutOfRange) instead of wrapping; x % -1 is 0, including INT64_MIN % -1.
inline IntArithOutcome IntArith(ArithOp op, int64_t a, int64_t b, int64_t* out) {
  switch (op) {
    case ArithOp::kAdd:
      return __builtin_add_overflow(a, b, out) ? IntArithOutcome::kOverflow
                                               : IntArithOutcome::kValue;
    case ArithOp::kSub:
      return __builtin_sub_overflow(a, b, out) ? IntArithOutcome::kOverflow
                                               : IntArithOutcome::kValue;
    case ArithOp::kMul:
      return __builtin_mul_overflow(a, b, out) ? IntArithOutcome::kOverflow
                                               : IntArithOutcome::kValue;
    case ArithOp::kDiv:
      if (b == 0) return IntArithOutcome::kNull;
      if (b == -1 && a == INT64_MIN) return IntArithOutcome::kOverflow;
      *out = a / b;
      return IntArithOutcome::kValue;
    case ArithOp::kMod:
      if (b == 0) return IntArithOutcome::kNull;
      *out = b == -1 ? 0 : a % b;
      return IntArithOutcome::kValue;
  }
  return IntArithOutcome::kNull;
}

/// \brief |a| over int64, checked like IntArith: false for |INT64_MIN|,
/// which overflows (the caller raises IntOverflowError) instead of wrapping.
inline bool IntAbs(int64_t a, int64_t* out) {
  if (a == INT64_MIN) return false;
  *out = a < 0 ? -a : a;
  return true;
}

/// The error both evaluators raise when int64 arithmetic in `expr` overflows.
Status IntOverflowError(const Expression& expr);

/// +, -, *, /, % over numerics (NULL operand -> NULL; x/0 -> NULL, the
/// engine's documented divide-by-zero behaviour; int64 overflow ->
/// OutOfRange, see IntArith).
class ArithmeticExpr : public Expression {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : Expression(ExprKind::kArithmetic),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  ArithOp op() const { return op_; }
  const Expression* left() const { return left_.get(); }
  const Expression* right() const { return right_.get(); }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  void ChildSlots(std::vector<ExprPtr*>* out) override {
    out->push_back(&left_);
    out->push_back(&right_);
  }

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// IS [NOT] NULL.
class IsNullExpr : public Expression {
 public:
  IsNullExpr(ExprPtr child, bool negated)
      : Expression(ExprKind::kIsNull), child_(std::move(child)), negated_(negated) {
    result_type_ = TypeId::kBool;
  }

  const Expression* child() const { return child_.get(); }
  bool negated() const { return negated_; }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  void ChildSlots(std::vector<ExprPtr*>* out) override { out->push_back(&child_); }

 private:
  ExprPtr child_;
  bool negated_;
};

/// Aggregate invocation (COUNT/SUM/MIN/MAX/AVG). Never evaluated directly:
/// the binder lifts these into an Aggregate plan node and replaces them with
/// column references; Eval on a surviving node is an Internal error.
class AggregateCallExpr : public Expression {
 public:
  AggregateCallExpr(AggFunc func, ExprPtr arg)
      : Expression(ExprKind::kAggregateCall), func_(func), arg_(std::move(arg)) {}

  AggFunc func() const { return func_; }
  const Expression* arg() const { return arg_.get(); }  // null for COUNT(*)
  ExprPtr TakeArg() { return std::move(arg_); }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  void ChildSlots(std::vector<ExprPtr*>* out) override {
    if (arg_ != nullptr) out->push_back(&arg_);
  }

 private:
  AggFunc func_;
  ExprPtr arg_;
};

/// Positional `?` placeholder in a prepared statement (0-based ordinal in
/// source order). Never survives to binding: Session::Prepare records the
/// template and parameter binding replaces every ParameterExpr with a
/// LiteralExpr before the binder runs, so Bind/Eval on one is an error (an
/// un-prepared statement containing `?` fails cleanly at bind time).
class ParameterExpr : public Expression {
 public:
  explicit ParameterExpr(size_t ordinal)
      : Expression(ExprKind::kParameter), ordinal_(ordinal) {}

  size_t ordinal() const { return ordinal_; }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

 private:
  size_t ordinal_;
};

/// Searched CASE: WHEN <bool> THEN <value> ... [ELSE <value>] END. The parser
/// lowers simple CASE (`CASE x WHEN v THEN ...`) into this form by rewriting
/// each arm to `x = v`, so the rest of the engine sees one shape only. A
/// missing ELSE yields NULL. Arms are evaluated in order; the first WHEN that
/// is TRUE (not NULL) selects its THEN.
class CaseExpr : public Expression {
 public:
  CaseExpr(std::vector<ExprPtr> whens, std::vector<ExprPtr> thens, ExprPtr else_expr)
      : Expression(ExprKind::kCase),
        whens_(std::move(whens)),
        thens_(std::move(thens)),
        else_(std::move(else_expr)) {}

  size_t num_arms() const { return whens_.size(); }
  const Expression* when_at(size_t i) const { return whens_[i].get(); }
  const Expression* then_at(size_t i) const { return thens_[i].get(); }
  const Expression* else_expr() const { return else_.get(); }  // may be null

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  void ChildSlots(std::vector<ExprPtr*>* out) override {
    for (size_t i = 0; i < whens_.size(); ++i) {
      out->push_back(&whens_[i]);
      out->push_back(&thens_[i]);
    }
    if (else_ != nullptr) out->push_back(&else_);
  }

 private:
  std::vector<ExprPtr> whens_;
  std::vector<ExprPtr> thens_;
  ExprPtr else_;
};

/// Scalar function call (abs, length, upper, lower, coalesce, nullif).
/// Arity and argument types are checked at Bind time; every function maps
/// NULL inputs per SQL (NULL in -> NULL out, except COALESCE which skips
/// NULLs and NULLIF which compares only non-NULL operands).
class FunctionCallExpr : public Expression {
 public:
  FunctionCallExpr(ScalarFunc func, std::vector<ExprPtr> args)
      : Expression(ExprKind::kFunctionCall), func_(func), args_(std::move(args)) {}

  ScalarFunc func() const { return func_; }
  const std::vector<ExprPtr>& args() const { return args_; }

  Result<Value> Eval(const Tuple& tuple) const override;
  Status Bind(const Schema& schema) override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  void ChildSlots(std::vector<ExprPtr*>* out) override {
    for (ExprPtr& a : args_) out->push_back(&a);
  }

 private:
  ScalarFunc func_;
  std::vector<ExprPtr> args_;
};

/// Looks up a scalar function by its lower-case SQL name; false if unknown.
bool LookupScalarFunc(const std::string& name, ScalarFunc* out);

/// Appends the owning slots of every ParameterExpr under `*root` (including
/// `root` itself), in source order. The slots stay valid while the tree is
/// alive; assigning a new expression through a slot replaces the parameter.
void CollectParameterSlots(ExprPtr* root, std::vector<ExprPtr*>* out);

/// Convenience constructors.
ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string table, std::string name);
ExprPtr MakeComparison(CompareOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeAnd(ExprPtr left, ExprPtr right);
ExprPtr MakeOr(ExprPtr left, ExprPtr right);
ExprPtr MakeNot(ExprPtr child);

}  // namespace relopt
