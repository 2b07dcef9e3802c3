#include "expr/expression.h"

#include <optional>

#include "util/logging.h"

namespace relopt {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "count(*)";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

const char* ScalarFuncToString(ScalarFunc f) {
  switch (f) {
    case ScalarFunc::kAbs:
      return "abs";
    case ScalarFunc::kLength:
      return "length";
    case ScalarFunc::kUpper:
      return "upper";
    case ScalarFunc::kLower:
      return "lower";
    case ScalarFunc::kCoalesce:
      return "coalesce";
    case ScalarFunc::kNullIf:
      return "nullif";
  }
  return "?";
}

bool LookupScalarFunc(const std::string& name, ScalarFunc* out) {
  if (name == "abs") *out = ScalarFunc::kAbs;
  else if (name == "length") *out = ScalarFunc::kLength;
  else if (name == "upper") *out = ScalarFunc::kUpper;
  else if (name == "lower") *out = ScalarFunc::kLower;
  else if (name == "coalesce") *out = ScalarFunc::kCoalesce;
  else if (name == "nullif") *out = ScalarFunc::kNullIf;
  else return false;
  return true;
}

CompareOp SwapCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

CompareOp NegateCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

namespace {

/// Calls `visit` on `e` and every node below it, pre-order: a node before its
/// children, children in ChildSlots order. Stops at the first `visit` that
/// returns false, and then returns false itself.
template <typename Fn>
bool VisitPreOrder(Expression* e, Fn& visit) {
  if (!visit(e)) return false;
  std::vector<ExprPtr*> slots;
  e->ChildSlots(&slots);
  for (ExprPtr* slot : slots) {
    if (!VisitPreOrder(slot->get(), visit)) return false;
  }
  return true;
}

bool IsNullLiteral(const Expression& e) {
  return e.kind() == ExprKind::kLiteral && static_cast<const LiteralExpr&>(e).value().is_null();
}

/// LiteralExpr::TypeIfNull for any node: false, changing nothing, unless `e`
/// is a NULL literal.
bool TypeIfNull(Expression* e, TypeId type) {
  return IsNullLiteral(*e) && static_cast<LiteralExpr*>(e)->TypeIfNull(type);
}

}  // namespace

void Expression::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  auto visit = [out](Expression* e) {
    if (e->kind() == ExprKind::kColumnRef) out->push_back(static_cast<ColumnRefExpr*>(e));
    return true;
  };
  VisitPreOrder(this, visit);
}

// ChildSlots hands out mutable slots (rewrites replace nodes through them);
// the const walks below only read through them.
void Expression::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  auto visit = [out](const Expression* e) {
    if (e->kind() == ExprKind::kColumnRef) out->push_back(static_cast<const ColumnRefExpr*>(e));
    return true;
  };
  VisitPreOrder(const_cast<Expression*>(this), visit);
}

bool Expression::ContainsAggregate() const {
  auto visit = [](const Expression* e) { return e->kind() != ExprKind::kAggregateCall; };
  return !VisitPreOrder(const_cast<Expression*>(this), visit);
}

// ---------------------------------------------------------------- Literal --

Status LiteralExpr::Bind(const Schema&) {
  result_type_ = value_.type();
  return Status::OK();
}
ExprPtr LiteralExpr::Clone() const { return std::make_unique<LiteralExpr>(value_); }
std::string LiteralExpr::ToString() const { return value_.ToString(); }

// -------------------------------------------------------------- ColumnRef --

Status ColumnRefExpr::Bind(const Schema& schema) {
  RELOPT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(table_, name_));
  bound_index_ = static_cast<int>(idx);
  result_type_ = schema.ColumnAt(idx).type;
  // Backfill the qualifier for unqualified references so downstream
  // consumers (selectivity estimation, join-edge detection, EXPLAIN) see the
  // resolved relation.
  if (table_.empty()) table_ = schema.ColumnAt(idx).table;
  return Status::OK();
}

ExprPtr ColumnRefExpr::Clone() const {
  auto c = std::make_unique<ColumnRefExpr>(table_, name_);
  c->bound_index_ = bound_index_;
  c->result_type_ = result_type_;
  return c;
}

std::string ColumnRefExpr::ToString() const {
  return table_.empty() ? name_ : table_ + "." + name_;
}

// ------------------------------------------------------------- Comparison --

Status ComparisonExpr::Bind(const Schema& schema) {
  RELOPT_RETURN_NOT_OK(left_->Bind(schema));
  RELOPT_RETURN_NOT_OK(right_->Bind(schema));
  TypeIfNull(left_.get(), right_->result_type());
  TypeIfNull(right_.get(), left_->result_type());
  if (!AreComparable(left_->result_type(), right_->result_type())) {
    return Status::TypeError("cannot compare " + left_->ToString() + " (" +
                             TypeIdToString(left_->result_type()) + ") with " +
                             right_->ToString() + " (" + TypeIdToString(right_->result_type()) +
                             ")");
  }
  result_type_ = TypeId::kBool;
  return Status::OK();
}

ExprPtr ComparisonExpr::Clone() const {
  auto c = std::make_unique<ComparisonExpr>(op_, left_->Clone(), right_->Clone());
  c->result_type_ = result_type_;
  return c;
}

std::string ComparisonExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpToString(op_) + " " + right_->ToString() + ")";
}

// ---------------------------------------------------------------- Logical --

Status LogicalExpr::Bind(const Schema& schema) {
  for (ExprPtr& child : children_) {
    RELOPT_RETURN_NOT_OK(child->Bind(schema));
    if (child->result_type() != TypeId::kBool && !TypeIfNull(child.get(), TypeId::kBool)) {
      return Status::TypeError("logical operand " + child->ToString() + " is not boolean");
    }
  }
  result_type_ = TypeId::kBool;
  return Status::OK();
}

ExprPtr LogicalExpr::Clone() const {
  std::vector<ExprPtr> kids;
  kids.reserve(children_.size());
  for (const ExprPtr& c : children_) kids.push_back(c->Clone());
  auto e = std::make_unique<LogicalExpr>(op_, std::move(kids));
  e->result_type_ = result_type_;
  return e;
}

std::string LogicalExpr::ToString() const {
  if (op_ == LogicalOp::kNot) return "(NOT " + children_[0]->ToString() + ")";
  const char* sep = op_ == LogicalOp::kAnd ? " AND " : " OR ";
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += sep;
    out += children_[i]->ToString();
  }
  return out + ")";
}

// ------------------------------------------------------------- Arithmetic --

Status IntOverflowError(const Expression& expr) {
  return Status::OutOfRange("integer overflow in " + expr.ToString());
}

Status ArithmeticExpr::Bind(const Schema& schema) {
  RELOPT_RETURN_NOT_OK(left_->Bind(schema));
  RELOPT_RETURN_NOT_OK(right_->Bind(schema));
  // A NULL operand takes the other operand's numeric type, INT by default.
  auto numeric_or_int = [](TypeId t) { return IsNumeric(t) ? t : TypeId::kInt64; };
  TypeIfNull(left_.get(), numeric_or_int(right_->result_type()));
  TypeIfNull(right_.get(), numeric_or_int(left_->result_type()));
  if (!IsNumeric(left_->result_type()) || !IsNumeric(right_->result_type())) {
    return Status::TypeError("arithmetic needs numeric operands in " + ToString());
  }
  result_type_ = (left_->result_type() == TypeId::kInt64 &&
                  right_->result_type() == TypeId::kInt64)
                     ? TypeId::kInt64
                     : TypeId::kDouble;
  return Status::OK();
}

ExprPtr ArithmeticExpr::Clone() const {
  auto e = std::make_unique<ArithmeticExpr>(op_, left_->Clone(), right_->Clone());
  e->result_type_ = result_type_;
  return e;
}

std::string ArithmeticExpr::ToString() const {
  return "(" + left_->ToString() + " " + ArithOpToString(op_) + " " + right_->ToString() + ")";
}

// ----------------------------------------------------------------- IsNull --

Status IsNullExpr::Bind(const Schema& schema) {
  RELOPT_RETURN_NOT_OK(child_->Bind(schema));
  result_type_ = TypeId::kBool;
  return Status::OK();
}

ExprPtr IsNullExpr::Clone() const {
  auto e = std::make_unique<IsNullExpr>(child_->Clone(), negated_);
  e->result_type_ = result_type_;
  return e;
}

std::string IsNullExpr::ToString() const {
  return "(" + child_->ToString() + (negated_ ? " IS NOT NULL)" : " IS NULL)");
}

// ---------------------------------------------------------- AggregateCall --

Status AggregateCallExpr::Bind(const Schema& schema) {
  if (arg_) {
    RELOPT_RETURN_NOT_OK(arg_->Bind(schema));
  }
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      result_type_ = TypeId::kInt64;
      break;
    case AggFunc::kAvg:
      result_type_ = TypeId::kDouble;
      break;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      result_type_ = arg_ ? arg_->result_type() : TypeId::kInt64;
      break;
  }
  return Status::OK();
}

ExprPtr AggregateCallExpr::Clone() const {
  auto e = std::make_unique<AggregateCallExpr>(func_, arg_ ? arg_->Clone() : nullptr);
  e->result_type_ = result_type_;
  return e;
}

std::string AggregateCallExpr::ToString() const {
  if (func_ == AggFunc::kCountStar) return "count(*)";
  return std::string(AggFuncToString(func_)) + "(" + (arg_ ? arg_->ToString() : "*") + ")";
}

// ------------------------------------------------------------------- Case --

namespace {

/// Unifies the result types of CASE branches / COALESCE arguments:
/// identical types stay, int64+double widens to double, anything else is a
/// type error; NULL literals take the unified type. `what` names the
/// construct for the error message.
Result<TypeId> UnifyBranchTypes(const std::vector<Expression*>& branches,
                                const std::string& what) {
  std::optional<TypeId> out;
  for (const Expression* branch : branches) {
    if (IsNullLiteral(*branch)) continue;
    TypeId t = branch->result_type();
    if (!out.has_value() || t == *out) {
      out = t;
    } else if (IsNumeric(t) && IsNumeric(*out)) {
      out = TypeId::kDouble;
    } else {
      return Status::TypeError(what + " branches mix incompatible types " + TypeIdToString(*out) +
                               " and " + TypeIdToString(t));
    }
  }
  TypeId type = out.value_or(branches[0]->result_type());
  for (Expression* branch : branches) TypeIfNull(branch, type);
  return type;
}

}  // namespace

Status CaseExpr::Bind(const Schema& schema) {
  std::vector<Expression*> branches;
  for (size_t i = 0; i < whens_.size(); ++i) {
    RELOPT_RETURN_NOT_OK(whens_[i]->Bind(schema));
    if (whens_[i]->result_type() != TypeId::kBool && !TypeIfNull(whens_[i].get(), TypeId::kBool)) {
      return Status::TypeError("CASE WHEN condition " + whens_[i]->ToString() +
                               " is not boolean");
    }
    RELOPT_RETURN_NOT_OK(thens_[i]->Bind(schema));
    branches.push_back(thens_[i].get());
  }
  if (else_ != nullptr) {
    RELOPT_RETURN_NOT_OK(else_->Bind(schema));
    branches.push_back(else_.get());
  }
  RELOPT_ASSIGN_OR_RETURN(result_type_, UnifyBranchTypes(branches, "CASE"));
  return Status::OK();
}

ExprPtr CaseExpr::Clone() const {
  std::vector<ExprPtr> whens, thens;
  whens.reserve(whens_.size());
  thens.reserve(thens_.size());
  for (const ExprPtr& w : whens_) whens.push_back(w->Clone());
  for (const ExprPtr& t : thens_) thens.push_back(t->Clone());
  auto e = std::make_unique<CaseExpr>(std::move(whens), std::move(thens),
                                      else_ ? else_->Clone() : nullptr);
  e->result_type_ = result_type_;
  return e;
}

std::string CaseExpr::ToString() const {
  std::string out = "CASE";
  for (size_t i = 0; i < whens_.size(); ++i) {
    out += " WHEN " + whens_[i]->ToString() + " THEN " + thens_[i]->ToString();
  }
  if (else_ != nullptr) out += " ELSE " + else_->ToString();
  return out + " END";
}

// ----------------------------------------------------------- FunctionCall --

Status FunctionCallExpr::Bind(const Schema& schema) {
  for (ExprPtr& arg : args_) RELOPT_RETURN_NOT_OK(arg->Bind(schema));
  auto arity_error = [this](size_t want) {
    return Status::TypeError(std::string(ScalarFuncToString(func_)) + " takes " +
                             std::to_string(want) + " argument(s), got " +
                             std::to_string(args_.size()));
  };
  switch (func_) {
    case ScalarFunc::kAbs:
      if (args_.size() != 1) return arity_error(1);
      if (!IsNumeric(args_[0]->result_type()) && !TypeIfNull(args_[0].get(), TypeId::kInt64)) {
        return Status::TypeError("abs needs a numeric argument in " + ToString());
      }
      result_type_ = args_[0]->result_type();
      break;
    case ScalarFunc::kLength:
      if (args_.size() != 1) return arity_error(1);
      if (args_[0]->result_type() != TypeId::kString &&
          !TypeIfNull(args_[0].get(), TypeId::kString)) {
        return Status::TypeError("length needs a string argument in " + ToString());
      }
      result_type_ = TypeId::kInt64;
      break;
    case ScalarFunc::kUpper:
    case ScalarFunc::kLower:
      if (args_.size() != 1) return arity_error(1);
      if (args_[0]->result_type() != TypeId::kString &&
          !TypeIfNull(args_[0].get(), TypeId::kString)) {
        return Status::TypeError(std::string(ScalarFuncToString(func_)) +
                                 " needs a string argument in " + ToString());
      }
      result_type_ = TypeId::kString;
      break;
    case ScalarFunc::kCoalesce: {
      if (args_.empty()) return arity_error(1);
      std::vector<Expression*> branches;
      for (const ExprPtr& arg : args_) branches.push_back(arg.get());
      RELOPT_ASSIGN_OR_RETURN(result_type_, UnifyBranchTypes(branches, "coalesce"));
      break;
    }
    case ScalarFunc::kNullIf: {
      if (args_.size() != 2) return arity_error(2);
      TypeIfNull(args_[0].get(), args_[1]->result_type());
      TypeIfNull(args_[1].get(), args_[0]->result_type());
      if (!AreComparable(args_[0]->result_type(), args_[1]->result_type())) {
        return Status::TypeError(std::string("nullif cannot compare ") +
                                 TypeIdToString(args_[0]->result_type()) + " with " +
                                 TypeIdToString(args_[1]->result_type()));
      }
      result_type_ = args_[0]->result_type();
      break;
    }
  }
  return Status::OK();
}

ExprPtr FunctionCallExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) args.push_back(a->Clone());
  auto e = std::make_unique<FunctionCallExpr>(func_, std::move(args));
  e->result_type_ = result_type_;
  return e;
}

std::string FunctionCallExpr::ToString() const {
  std::string out = std::string(ScalarFuncToString(func_)) + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  return out + ")";
}

// ---------------------------------------------------------- ParameterExpr --

Status ParameterExpr::Bind(const Schema& schema) {
  (void)schema;
  return Status::InvalidArgument("statement has unbound parameters; prepare it and supply " +
                                 std::to_string(ordinal_ + 1) + " value(s)");
}

ExprPtr ParameterExpr::Clone() const { return std::make_unique<ParameterExpr>(ordinal_); }

std::string ParameterExpr::ToString() const { return "?"; }

void CollectParameterSlots(ExprPtr* root, std::vector<ExprPtr*>* out) {
  if (*root == nullptr) return;
  if ((*root)->kind() == ExprKind::kParameter) {
    out->push_back(root);
    return;
  }
  std::vector<ExprPtr*> children;
  (*root)->ChildSlots(&children);
  for (ExprPtr* child : children) CollectParameterSlots(child, out);
}

// ---------------------------------------------------------------- Helpers --

ExprPtr MakeLiteral(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr MakeColumnRef(std::string table, std::string name) {
  return std::make_unique<ColumnRefExpr>(std::move(table), std::move(name));
}
ExprPtr MakeComparison(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_unique<ComparisonExpr>(op, std::move(left), std::move(right));
}
ExprPtr MakeAnd(ExprPtr left, ExprPtr right) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(left));
  kids.push_back(std::move(right));
  return std::make_unique<LogicalExpr>(LogicalOp::kAnd, std::move(kids));
}
ExprPtr MakeOr(ExprPtr left, ExprPtr right) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(left));
  kids.push_back(std::move(right));
  return std::make_unique<LogicalExpr>(LogicalOp::kOr, std::move(kids));
}
ExprPtr MakeNot(ExprPtr child) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(child));
  return std::make_unique<LogicalExpr>(LogicalOp::kNot, std::move(kids));
}

}  // namespace relopt
