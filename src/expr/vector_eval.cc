#include "expr/vector_eval.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "types/key_codec.h"

namespace relopt {

namespace {

void CollectConjunctsInto(const Expression* pred, std::vector<const Expression*>* out) {
  if (pred == nullptr) return;
  if (pred->kind() == ExprKind::kLogical) {
    const auto* logical = static_cast<const LogicalExpr*>(pred);
    if (logical->op() == LogicalOp::kAnd) {
      for (const ExprPtr& child : logical->children()) {
        CollectConjunctsInto(child.get(), out);
      }
      return;
    }
  }
  out->push_back(pred);
}

bool ApplyOp(CompareOp op, int c) {
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

/// Widens a CASE/COALESCE/NULLIF branch value to the unified result type:
/// NULL takes the target type, int64 widens to double, everything else
/// passes through.
Value CoerceValue(Value v, TypeId target) {
  if (v.is_null()) return Value::Null(target);
  if (target == TypeId::kDouble && v.type() == TypeId::kInt64) {
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  return v;
}

/// Reads entry `k` as a boolean; `*is_null` set accordingly. Works for both
/// i64-lane bool vectors and boxed ones (mixed storage).
inline void ReadBool(const ColumnVec& v, size_t k, bool* is_null, bool* b) {
  if (v.NullAt(k)) {
    *is_null = true;
    return;
  }
  *is_null = false;
  *b = v.boxed ? v.BoxedAt(k).AsBool() : v.I64At(k) != 0;
}

/// Borrow entry `k` as a Value without copying boxed payloads: boxed columns
/// hand out a reference, primitive lanes materialize into `*storage`.
inline const Value& BorrowValue(const ColumnVec& v, size_t k, Value* storage) {
  if (v.boxed && !v.NullAt(k)) return v.BoxedAt(k);
  *storage = v.GetValue(k);
  return *storage;
}

/// Converts a primitive vector to boxed storage in place, preserving the
/// entries written so far. Only the adaptive mixed-type path needs this.
void BoxColumn(ColumnVec* v) {
  if (v->boxed) return;
  size_t phys_n = v->nulls.size();
  std::vector<Value> vals(phys_n);
  for (size_t k = 0; k < phys_n; ++k) {
    if (v->nulls[k] == 0) {
      switch (v->type) {
        case TypeId::kBool:
          vals[k] = Value::Bool(v->i64[k] != 0);
          break;
        case TypeId::kInt64:
          vals[k] = Value::Int(v->i64[k]);
          break;
        case TypeId::kDouble:
          vals[k] = Value::Double(v->f64[k]);
          break;
        default:
          break;
      }
    }
  }
  v->vals = std::move(vals);
  v->boxed = true;
}

/// Stores an already-coerced value into entry `p`; boxes the column when the
/// runtime type cannot live in the primitive lane (adaptive mixed columns).
void StoreValue(ColumnVec* out, size_t p, Value v) {
  if (v.is_null()) {
    out->nulls[p] = 1;
    return;
  }
  out->nulls[p] = 0;
  if (!out->boxed) {
    if (out->type == TypeId::kInt64 && v.type() == TypeId::kInt64) {
      out->i64[p] = v.AsInt();
      return;
    }
    if (out->type == TypeId::kDouble && v.type() == TypeId::kDouble) {
      out->f64[p] = v.AsDouble();
      return;
    }
    if (out->type == TypeId::kBool && v.type() == TypeId::kBool) {
      out->i64[p] = v.AsBool() ? 1 : 0;
      return;
    }
    BoxColumn(out);
  }
  out->vals[p] = std::move(v);
}

/// The error a row too short for a bound column reference raises.
Status ColumnOutOfRange(const Expression& ref) {
  return Status::Internal("column reference " + ref.ToString() + " out of range");
}

// ------------------------------------------------------------ kernel nodes --

/// Bound column gather. Primitive columns fill typed lanes; a runtime value
/// whose type disagrees with the declared column type (possible only with
/// type-loose storage) flips the node into boxed mode permanently so
/// downstream kernels see the exact runtime Values.
class ColRefNode final : public CompiledExpr {
 public:
  explicit ColRefNode(const ColumnRefExpr* src)
      : CompiledExpr(src->result_type()), src_(src), col_(src->bound_index()) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    size_t n = rows.size();
    bool primitive = !boxed_mode_ && type_ != TypeId::kString;
    out->Reset(type_, !primitive, n);
    for (size_t k = 0; k < n; ++k) {
      const Tuple& t = batch.RowAt(rows[k]);
      if (static_cast<size_t>(col_) >= t.NumValues()) return ColumnOutOfRange(*src_);
      const Value& v = t.At(static_cast<size_t>(col_));
      if (v.is_null()) {
        out->nulls[k] = 1;
        continue;
      }
      if (!primitive) {
        out->vals[k] = v;
      } else if (type_ == TypeId::kInt64 && v.type() == TypeId::kInt64) {
        out->i64[k] = v.AsInt();
      } else if (type_ == TypeId::kDouble && v.type() == TypeId::kDouble) {
        out->f64[k] = v.AsDouble();
      } else if (type_ == TypeId::kBool && v.type() == TypeId::kBool) {
        out->i64[k] = v.AsBool() ? 1 : 0;
      } else {
        boxed_mode_ = true;  // mixed storage: redo this batch boxed
        return Eval(batch, rows, out);
      }
    }
    return Status::OK();
  }

 private:
  const ColumnRefExpr* src_;
  int col_;
  bool boxed_mode_ = false;
};

class LitNode final : public CompiledExpr {
 public:
  explicit LitNode(const Value& v) : CompiledExpr(v.type()) {
    cvec_.Reset(v.type(), v.type() == TypeId::kString, 1);
    StoreValue(&cvec_, 0, v);
    cvec_.is_const = true;
  }

  Status Eval(const TupleBatch&, const std::vector<uint32_t>& rows, ColumnVec* out) override {
    *out = cvec_;
    out->n = rows.size();
    return Status::OK();
  }

 private:
  ColumnVec cvec_;
};

class CmpNode final : public CompiledExpr {
 public:
  CmpNode(CompareOp op, CompiledExprPtr l, CompiledExprPtr r)
      : CompiledExpr(TypeId::kBool), op_(op), l_(std::move(l)), r_(std::move(r)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(l_->Eval(batch, rows, &lv_));
    RELOPT_RETURN_NOT_OK(r_->Eval(batch, rows, &rv_));
    size_t n = rows.size();
    out->Reset(TypeId::kBool, false, n);
    if (lv_.boxed || rv_.boxed) {
      Value ls, rs;
      for (size_t k = 0; k < n; ++k) {
        if (lv_.NullAt(k) || rv_.NullAt(k)) {
          out->nulls[k] = 1;
          continue;
        }
        const Value& a = BorrowValue(lv_, k, &ls);
        const Value& b = BorrowValue(rv_, k, &rs);
        RELOPT_ASSIGN_OR_RETURN(int c, a.Compare(b));
        out->i64[k] = ApplyOp(op_, c) ? 1 : 0;
      }
      return Status::OK();
    }
    if (lv_.type == TypeId::kDouble || rv_.type == TypeId::kDouble) {
      for (size_t k = 0; k < n; ++k) {
        if (lv_.NullAt(k) || rv_.NullAt(k)) {
          out->nulls[k] = 1;
          continue;
        }
        double a = lv_.NumAt(k), b = rv_.NumAt(k);
        out->i64[k] = ApplyOp(op_, a < b ? -1 : (a > b ? 1 : 0)) ? 1 : 0;
      }
    } else {
      for (size_t k = 0; k < n; ++k) {
        if (lv_.NullAt(k) || rv_.NullAt(k)) {
          out->nulls[k] = 1;
          continue;
        }
        int64_t a = lv_.I64At(k), b = rv_.I64At(k);
        out->i64[k] = ApplyOp(op_, a < b ? -1 : (a > b ? 1 : 0)) ? 1 : 0;
      }
    }
    return Status::OK();
  }

 private:
  CompareOp op_;
  CompiledExprPtr l_, r_;
  ColumnVec lv_, rv_;
};

class ArithNode final : public CompiledExpr {
 public:
  ArithNode(const ArithmeticExpr* src, CompiledExprPtr l, CompiledExprPtr r)
      : CompiledExpr(src->result_type()),
        src_(src),
        op_(src->op()),
        l_(std::move(l)),
        r_(std::move(r)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(l_->Eval(batch, rows, &lv_));
    RELOPT_RETURN_NOT_OK(r_->Eval(batch, rows, &rv_));
    size_t n = rows.size();
    if (lv_.boxed || rv_.boxed) return EvalBoxed(n, out);
    if (lv_.type == TypeId::kInt64 && rv_.type == TypeId::kInt64) {
      out->Reset(TypeId::kInt64, false, n);
      for (size_t k = 0; k < n; ++k) {
        if (lv_.NullAt(k) || rv_.NullAt(k)) {
          out->nulls[k] = 1;
          continue;
        }
        switch (IntArith(op_, lv_.I64At(k), rv_.I64At(k), &out->i64[k])) {
          case IntArithOutcome::kValue:
            break;
          case IntArithOutcome::kNull:
            out->nulls[k] = 1;
            break;
          case IntArithOutcome::kOverflow:
            return IntOverflowError(*src_);
        }
      }
      return Status::OK();
    }
    out->Reset(TypeId::kDouble, false, n);
    for (size_t k = 0; k < n; ++k) {
      if (lv_.NullAt(k) || rv_.NullAt(k)) {
        out->nulls[k] = 1;
        continue;
      }
      double a = lv_.NumAt(k), b = rv_.NumAt(k);
      switch (op_) {
        case ArithOp::kAdd:
          out->f64[k] = a + b;
          break;
        case ArithOp::kSub:
          out->f64[k] = a - b;
          break;
        case ArithOp::kMul:
          out->f64[k] = a * b;
          break;
        case ArithOp::kDiv:
          if (b == 0) {
            out->nulls[k] = 1;
          } else {
            out->f64[k] = a / b;
          }
          break;
        case ArithOp::kMod:
          if (b == 0) {
            out->nulls[k] = 1;
          } else {
            out->f64[k] = std::fmod(a, b);
          }
          break;
      }
    }
    return Status::OK();
  }

 private:
  /// Mixed-type inputs: value-typed arithmetic, with a runtime type error
  /// for a non-numeric operand.
  Status EvalBoxed(size_t n, ColumnVec* out) {
    out->Reset(type_, true, n);
    Value ls, rs;
    for (size_t k = 0; k < n; ++k) {
      if (lv_.NullAt(k) || rv_.NullAt(k)) {
        out->nulls[k] = 1;
        continue;
      }
      const Value& l = BorrowValue(lv_, k, &ls);
      const Value& r = BorrowValue(rv_, k, &rs);
      if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
        return Status::TypeError("arithmetic on non-numeric operand in " + src_->ToString());
      }
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        int64_t v;
        switch (IntArith(op_, l.AsInt(), r.AsInt(), &v)) {
          case IntArithOutcome::kValue:
            out->vals[k] = Value::Int(v);
            break;
          case IntArithOutcome::kNull:
            out->nulls[k] = 1;
            break;
          case IntArithOutcome::kOverflow:
            return IntOverflowError(*src_);
        }
        continue;
      }
      double a = l.NumericAsDouble(), b = r.NumericAsDouble();
      switch (op_) {
        case ArithOp::kAdd:
          out->vals[k] = Value::Double(a + b);
          break;
        case ArithOp::kSub:
          out->vals[k] = Value::Double(a - b);
          break;
        case ArithOp::kMul:
          out->vals[k] = Value::Double(a * b);
          break;
        case ArithOp::kDiv:
          if (b == 0) {
            out->nulls[k] = 1;
          } else {
            out->vals[k] = Value::Double(a / b);
          }
          break;
        case ArithOp::kMod:
          if (b == 0) {
            out->nulls[k] = 1;
          } else {
            out->vals[k] = Value::Double(std::fmod(a, b));
          }
          break;
      }
    }
    return Status::OK();
  }

  const ArithmeticExpr* src_;
  ArithOp op_;
  CompiledExprPtr l_, r_;
  ColumnVec lv_, rv_;
};

class NotNode final : public CompiledExpr {
 public:
  explicit NotNode(CompiledExprPtr child)
      : CompiledExpr(TypeId::kBool), child_(std::move(child)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(child_->Eval(batch, rows, &cv_));
    size_t n = rows.size();
    out->Reset(TypeId::kBool, false, n);
    for (size_t k = 0; k < n; ++k) {
      bool is_null, b;
      ReadBool(cv_, k, &is_null, &b);
      if (is_null) {
        out->nulls[k] = 1;
      } else {
        out->i64[k] = b ? 0 : 1;
      }
    }
    return Status::OK();
  }

 private:
  CompiledExprPtr child_;
  ColumnVec cv_;
};

/// Lazy three-valued AND/OR: each child only evaluates over the rows the
/// earlier children left undecided (AND: not yet false; OR: not yet true) —
/// the selection-compaction form of short-circuit evaluation, including its
/// "NULL stays pending until a deciding value appears" rule.
class AndOrNode final : public CompiledExpr {
 public:
  AndOrNode(LogicalOp op, std::vector<CompiledExprPtr> children)
      : CompiledExpr(TypeId::kBool),
        is_and_(op == LogicalOp::kAnd),
        children_(std::move(children)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    size_t n = rows.size();
    out->Reset(TypeId::kBool, false, n);
    int64_t neutral = is_and_ ? 1 : 0;
    for (size_t k = 0; k < n; ++k) out->i64[k] = neutral;
    active_.resize(n);
    for (size_t k = 0; k < n; ++k) active_[k] = static_cast<uint32_t>(k);
    for (const CompiledExprPtr& child : children_) {
      if (active_.empty()) break;
      subrows_.clear();
      subrows_.reserve(active_.size());
      for (uint32_t p : active_) subrows_.push_back(rows[p]);
      RELOPT_RETURN_NOT_OK(child->Eval(batch, subrows_, &cv_));
      next_active_.clear();
      for (size_t j = 0; j < active_.size(); ++j) {
        uint32_t p = active_[j];
        bool is_null, b;
        ReadBool(cv_, j, &is_null, &b);
        if (is_null) {
          out->nulls[p] = 1;  // pending NULL: a later deciding value overrides
          next_active_.push_back(p);
          continue;
        }
        if (is_and_ ? !b : b) {
          out->i64[p] = is_and_ ? 0 : 1;  // decided: AND -> false / OR -> true
          out->nulls[p] = 0;
        } else {
          next_active_.push_back(p);
        }
      }
      active_.swap(next_active_);
    }
    return Status::OK();
  }

 private:
  bool is_and_;
  std::vector<CompiledExprPtr> children_;
  ColumnVec cv_;
  std::vector<uint32_t> active_, next_active_, subrows_;
};

class IsNullNode final : public CompiledExpr {
 public:
  IsNullNode(CompiledExprPtr child, bool negated)
      : CompiledExpr(TypeId::kBool), child_(std::move(child)), negated_(negated) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(child_->Eval(batch, rows, &cv_));
    size_t n = rows.size();
    out->Reset(TypeId::kBool, false, n);
    for (size_t k = 0; k < n; ++k) {
      bool is_null = cv_.NullAt(k);
      out->i64[k] = (negated_ ? !is_null : is_null) ? 1 : 0;
    }
    return Status::OK();
  }

 private:
  CompiledExprPtr child_;
  bool negated_;
  ColumnVec cv_;
};

/// Lazy CASE: WHEN i only evaluates over rows arms 0..i-1 left undecided,
/// and THEN i only over the rows WHEN i actually took — so a THEN that would
/// error on an untaken row stays silent.
class CaseNode final : public CompiledExpr {
 public:
  CaseNode(const CaseExpr* src, std::vector<CompiledExprPtr> whens,
           std::vector<CompiledExprPtr> thens, CompiledExprPtr else_node)
      : CompiledExpr(src->result_type()),
        whens_(std::move(whens)),
        thens_(std::move(thens)),
        else_(std::move(else_node)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    size_t n = rows.size();
    out->Reset(type_, type_ == TypeId::kString, n);
    undecided_.resize(n);
    for (size_t k = 0; k < n; ++k) undecided_[k] = static_cast<uint32_t>(k);
    for (size_t i = 0; i < whens_.size(); ++i) {
      if (undecided_.empty()) break;
      subrows_.clear();
      for (uint32_t p : undecided_) subrows_.push_back(rows[p]);
      RELOPT_RETURN_NOT_OK(whens_[i]->Eval(batch, subrows_, &wv_));
      taken_pos_.clear();
      taken_sub_.clear();
      rest_.clear();
      for (size_t j = 0; j < undecided_.size(); ++j) {
        bool is_null, b;
        ReadBool(wv_, j, &is_null, &b);
        if (!is_null && b) {
          taken_pos_.push_back(undecided_[j]);
          taken_sub_.push_back(subrows_[j]);
        } else {
          rest_.push_back(undecided_[j]);
        }
      }
      if (!taken_pos_.empty()) {
        RELOPT_RETURN_NOT_OK(thens_[i]->Eval(batch, taken_sub_, &tv_));
        for (size_t j = 0; j < taken_pos_.size(); ++j) {
          StoreValue(out, taken_pos_[j], CoerceValue(tv_.GetValue(j), type_));
        }
      }
      undecided_.swap(rest_);
    }
    if (undecided_.empty()) return Status::OK();
    if (else_ == nullptr) {
      for (uint32_t p : undecided_) out->nulls[p] = 1;
      return Status::OK();
    }
    subrows_.clear();
    for (uint32_t p : undecided_) subrows_.push_back(rows[p]);
    RELOPT_RETURN_NOT_OK(else_->Eval(batch, subrows_, &tv_));
    for (size_t j = 0; j < undecided_.size(); ++j) {
      StoreValue(out, undecided_[j], CoerceValue(tv_.GetValue(j), type_));
    }
    return Status::OK();
  }

 private:
  std::vector<CompiledExprPtr> whens_, thens_;
  CompiledExprPtr else_;
  ColumnVec wv_, tv_;
  std::vector<uint32_t> undecided_, rest_, taken_pos_, taken_sub_, subrows_;
};

class AbsNode final : public CompiledExpr {
 public:
  AbsNode(const FunctionCallExpr* src, CompiledExprPtr arg)
      : CompiledExpr(src->result_type()), src_(src), arg_(std::move(arg)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(arg_->Eval(batch, rows, &av_));
    size_t n = rows.size();
    if (av_.boxed) {
      out->Reset(type_, true, n);
      for (size_t k = 0; k < n; ++k) {
        if (av_.NullAt(k)) {
          out->nulls[k] = 1;
          continue;
        }
        const Value& v = av_.BoxedAt(k);
        if (!IsNumeric(v.type())) {
          return Status::TypeError("abs on non-numeric operand in " + src_->ToString());
        }
        if (v.type() == TypeId::kInt64) {
          int64_t abs;
          if (!IntAbs(v.AsInt(), &abs)) return IntOverflowError(*src_);
          out->vals[k] = Value::Int(abs);
        } else {
          double d = v.NumericAsDouble();
          out->vals[k] = Value::Double(d < 0 ? -d : d);
        }
      }
      return Status::OK();
    }
    bool as_int = av_.type == TypeId::kInt64;
    out->Reset(as_int ? TypeId::kInt64 : TypeId::kDouble, false, n);
    for (size_t k = 0; k < n; ++k) {
      if (av_.NullAt(k)) {
        out->nulls[k] = 1;
      } else if (as_int) {
        if (!IntAbs(av_.I64At(k), &out->i64[k])) return IntOverflowError(*src_);
      } else {
        double d = av_.F64At(k);
        out->f64[k] = d < 0 ? -d : d;
      }
    }
    return Status::OK();
  }

 private:
  const FunctionCallExpr* src_;
  CompiledExprPtr arg_;
  ColumnVec av_;
};

class LengthNode final : public CompiledExpr {
 public:
  LengthNode(const FunctionCallExpr* src, CompiledExprPtr arg)
      : CompiledExpr(TypeId::kInt64), src_(src), arg_(std::move(arg)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(arg_->Eval(batch, rows, &av_));
    size_t n = rows.size();
    out->Reset(TypeId::kInt64, false, n);
    Value storage;
    for (size_t k = 0; k < n; ++k) {
      if (av_.NullAt(k)) {
        out->nulls[k] = 1;
        continue;
      }
      const Value& v = BorrowValue(av_, k, &storage);
      if (v.type() != TypeId::kString) {
        return Status::TypeError("length on non-string operand in " + src_->ToString());
      }
      out->i64[k] = static_cast<int64_t>(v.AsString().size());
    }
    return Status::OK();
  }

 private:
  const FunctionCallExpr* src_;
  CompiledExprPtr arg_;
  ColumnVec av_;
};

class CaseMapNode final : public CompiledExpr {
 public:
  CaseMapNode(const FunctionCallExpr* src, CompiledExprPtr arg, bool upper)
      : CompiledExpr(TypeId::kString), src_(src), arg_(std::move(arg)), upper_(upper) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(arg_->Eval(batch, rows, &av_));
    size_t n = rows.size();
    out->Reset(TypeId::kString, true, n);
    Value storage;
    for (size_t k = 0; k < n; ++k) {
      if (av_.NullAt(k)) {
        out->nulls[k] = 1;
        continue;
      }
      const Value& v = BorrowValue(av_, k, &storage);
      if (v.type() != TypeId::kString) {
        return Status::TypeError(std::string(upper_ ? "upper" : "lower") +
                                 " on non-string operand in " + src_->ToString());
      }
      std::string s = v.AsString();
      if (upper_) {
        for (char& c : s) {
          if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
        }
      } else {
        for (char& c : s) {
          if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
        }
      }
      out->vals[k] = Value::String(std::move(s));
    }
    return Status::OK();
  }

 private:
  const FunctionCallExpr* src_;
  CompiledExprPtr arg_;
  bool upper_;
  ColumnVec av_;
};

/// Lazy COALESCE: argument i only evaluates over the rows 0..i-1 left NULL.
class CoalesceNode final : public CompiledExpr {
 public:
  CoalesceNode(const FunctionCallExpr* src, std::vector<CompiledExprPtr> args)
      : CompiledExpr(src->result_type()), args_(std::move(args)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    size_t n = rows.size();
    out->Reset(type_, type_ == TypeId::kString, n);
    undecided_.resize(n);
    for (size_t k = 0; k < n; ++k) undecided_[k] = static_cast<uint32_t>(k);
    for (const CompiledExprPtr& arg : args_) {
      if (undecided_.empty()) break;
      subrows_.clear();
      for (uint32_t p : undecided_) subrows_.push_back(rows[p]);
      RELOPT_RETURN_NOT_OK(arg->Eval(batch, subrows_, &av_));
      rest_.clear();
      for (size_t j = 0; j < undecided_.size(); ++j) {
        uint32_t p = undecided_[j];
        if (av_.NullAt(j)) {
          rest_.push_back(p);
        } else {
          StoreValue(out, p, CoerceValue(av_.GetValue(j), type_));
        }
      }
      undecided_.swap(rest_);
    }
    for (uint32_t p : undecided_) out->nulls[p] = 1;
    return Status::OK();
  }

 private:
  std::vector<CompiledExprPtr> args_;
  ColumnVec av_;
  std::vector<uint32_t> undecided_, rest_, subrows_;
};

class NullIfNode final : public CompiledExpr {
 public:
  NullIfNode(const FunctionCallExpr* src, CompiledExprPtr a, CompiledExprPtr b)
      : CompiledExpr(src->result_type()), a_(std::move(a)), b_(std::move(b)) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              ColumnVec* out) override {
    RELOPT_RETURN_NOT_OK(a_->Eval(batch, rows, &av_));
    RELOPT_RETURN_NOT_OK(b_->Eval(batch, rows, &bv_));
    size_t n = rows.size();
    out->Reset(type_, type_ == TypeId::kString, n);
    Value as, bs;
    for (size_t k = 0; k < n; ++k) {
      if (av_.NullAt(k) || bv_.NullAt(k)) {
        StoreValue(out, k, CoerceValue(av_.GetValue(k), type_));
        continue;
      }
      const Value& a = BorrowValue(av_, k, &as);
      const Value& b = BorrowValue(bv_, k, &bs);
      RELOPT_ASSIGN_OR_RETURN(int c, a.Compare(b));
      if (c == 0) {
        out->nulls[k] = 1;
      } else {
        StoreValue(out, k, CoerceValue(a, type_));
      }
    }
    return Status::OK();
  }

 private:
  CompiledExprPtr a_, b_;
  ColumnVec av_, bv_;
};

// A conjunct of the shape `column <op> literal` (or the mirror), recognized
// once at compile so the per-row loop can compare values directly instead of
// routing every row through virtual Eval calls and Value copies.
struct ColumnLiteralCompare {
  const ColumnRefExpr* col;
  CompareOp op;
  const Value* literal;  // owned by the expression tree
};

std::optional<ColumnLiteralCompare> MatchColumnLiteralCompare(const Expression* e) {
  if (e->kind() != ExprKind::kComparison) return std::nullopt;
  const auto* cmp = static_cast<const ComparisonExpr*>(e);
  const Expression* l = cmp->left();
  const Expression* r = cmp->right();
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral) {
    const auto* col = static_cast<const ColumnRefExpr*>(l);
    if (!col->IsBound()) return std::nullopt;
    return ColumnLiteralCompare{col, cmp->op(),
                                &static_cast<const LiteralExpr*>(r)->value()};
  }
  if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumnRef) {
    const auto* col = static_cast<const ColumnRefExpr*>(r);
    if (!col->IsBound()) return std::nullopt;
    return ColumnLiteralCompare{col, SwapCompareOp(cmp->op()),
                                &static_cast<const LiteralExpr*>(l)->value()};
  }
  return std::nullopt;
}

/// `column <op> column` over two bound references (e.g. `a < b` filters,
/// non-equi join residuals): both sides compare straight from storage.
struct ColumnColumnCompare {
  const ColumnRefExpr* lcol;
  const ColumnRefExpr* rcol;
  CompareOp op;
};

std::optional<ColumnColumnCompare> MatchColumnColumnCompare(const Expression* e) {
  if (e->kind() != ExprKind::kComparison) return std::nullopt;
  const auto* cmp = static_cast<const ComparisonExpr*>(e);
  if (cmp->left()->kind() != ExprKind::kColumnRef ||
      cmp->right()->kind() != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  const auto* l = static_cast<const ColumnRefExpr*>(cmp->left());
  const auto* r = static_cast<const ColumnRefExpr*>(cmp->right());
  if (!l->IsBound() || !r->IsBound()) return std::nullopt;
  return ColumnColumnCompare{l, r, cmp->op()};
}

int DirectColumnOf(const Expression* e) {
  if (e->kind() != ExprKind::kColumnRef) return -1;
  const auto* col = static_cast<const ColumnRefExpr*>(e);
  return col->IsBound() ? col->bound_index() : -1;
}

/// A kind the binder never hands to execution: evaluating it over any row
/// fails with the error that evaluating such an expression means.
class ErrorNode final : public CompiledExpr {
 public:
  ErrorNode(TypeId type, Status error) : CompiledExpr(type), error_(std::move(error)) {}

  Status Eval(const TupleBatch&, const std::vector<uint32_t>& rows, ColumnVec* out) override {
    if (!rows.empty()) return error_;
    out->Reset(type_, true, 0);
    return Status::OK();
  }

 private:
  Status error_;
};

inline void InvertKeyTail(std::string* key, size_t from) {
  for (size_t i = from; i < key->size(); ++i) {
    (*key)[i] = static_cast<char>(~static_cast<unsigned char>((*key)[i]));
  }
}

}  // namespace

// ---------------------------------------------------------------- ColumnVec --

void ColumnVec::Reset(TypeId t, bool boxed_storage, size_t num_rows) {
  type = t;
  is_const = false;
  boxed = boxed_storage;
  n = num_rows;
  nulls.assign(num_rows, 0);
  if (boxed) {
    vals.assign(num_rows, Value());
    i64.clear();
    f64.clear();
  } else if (t == TypeId::kDouble) {
    f64.assign(num_rows, 0.0);
    i64.clear();
    vals.clear();
  } else {
    i64.assign(num_rows, 0);
    f64.clear();
    vals.clear();
  }
}

Value ColumnVec::GetValue(size_t k) const {
  size_t p = phys(k);
  if (nulls[p] != 0) return Value::Null(type);
  if (boxed) return vals[p];
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(i64[p] != 0);
    case TypeId::kInt64:
      return Value::Int(i64[p]);
    case TypeId::kDouble:
      return Value::Double(f64[p]);
    default:
      return Value::Null(type);
  }
}

// -------------------------------------------------------------- CompileExpr --

std::vector<const Expression*> CollectConjuncts(const Expression* pred) {
  std::vector<const Expression*> out;
  CollectConjunctsInto(pred, &out);
  return out;
}

CompiledExprPtr CompileExpr(const Expression* expr) {
  auto error = [expr](Status st) -> CompiledExprPtr {
    return std::make_unique<ErrorNode>(expr->result_type(), std::move(st));
  };
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return std::make_unique<LitNode>(static_cast<const LiteralExpr*>(expr)->value());
    case ExprKind::kColumnRef: {
      const auto* col = static_cast<const ColumnRefExpr*>(expr);
      if (col->IsBound()) return std::make_unique<ColRefNode>(col);
      return error(Status::Internal("evaluating unbound column reference " + col->ToString()));
    }
    case ExprKind::kComparison: {
      const auto* cmp = static_cast<const ComparisonExpr*>(expr);
      return std::make_unique<CmpNode>(cmp->op(), CompileExpr(cmp->left()),
                                       CompileExpr(cmp->right()));
    }
    case ExprKind::kArithmetic: {
      const auto* ar = static_cast<const ArithmeticExpr*>(expr);
      return std::make_unique<ArithNode>(ar, CompileExpr(ar->left()), CompileExpr(ar->right()));
    }
    case ExprKind::kLogical: {
      const auto* logical = static_cast<const LogicalExpr*>(expr);
      std::vector<CompiledExprPtr> kids;
      kids.reserve(logical->children().size());
      for (const ExprPtr& c : logical->children()) kids.push_back(CompileExpr(c.get()));
      if (logical->op() == LogicalOp::kNot) {
        return std::make_unique<NotNode>(std::move(kids[0]));
      }
      return std::make_unique<AndOrNode>(logical->op(), std::move(kids));
    }
    case ExprKind::kIsNull: {
      const auto* in = static_cast<const IsNullExpr*>(expr);
      return std::make_unique<IsNullNode>(CompileExpr(in->child()), in->negated());
    }
    case ExprKind::kCase: {
      const auto* c = static_cast<const CaseExpr*>(expr);
      std::vector<CompiledExprPtr> whens, thens;
      whens.reserve(c->num_arms());
      thens.reserve(c->num_arms());
      for (size_t i = 0; i < c->num_arms(); ++i) {
        whens.push_back(CompileExpr(c->when_at(i)));
        thens.push_back(CompileExpr(c->then_at(i)));
      }
      CompiledExprPtr else_node =
          c->else_expr() != nullptr ? CompileExpr(c->else_expr()) : nullptr;
      return std::make_unique<CaseNode>(c, std::move(whens), std::move(thens),
                                        std::move(else_node));
    }
    case ExprKind::kFunctionCall: {
      const auto* f = static_cast<const FunctionCallExpr*>(expr);
      std::vector<CompiledExprPtr> args;
      args.reserve(f->args().size());
      for (const ExprPtr& a : f->args()) args.push_back(CompileExpr(a.get()));
      switch (f->func()) {
        case ScalarFunc::kAbs:
          return std::make_unique<AbsNode>(f, std::move(args[0]));
        case ScalarFunc::kLength:
          return std::make_unique<LengthNode>(f, std::move(args[0]));
        case ScalarFunc::kUpper:
          return std::make_unique<CaseMapNode>(f, std::move(args[0]), /*upper=*/true);
        case ScalarFunc::kLower:
          return std::make_unique<CaseMapNode>(f, std::move(args[0]), /*upper=*/false);
        case ScalarFunc::kCoalesce:
          return std::make_unique<CoalesceNode>(f, std::move(args));
        case ScalarFunc::kNullIf:
          return std::make_unique<NullIfNode>(f, std::move(args[0]), std::move(args[1]));
      }
      break;
    }
    case ExprKind::kAggregateCall:
      return error(Status::Internal("aggregate call " + expr->ToString() +
                                    " evaluated directly (binder should have lifted it)"));
    case ExprKind::kParameter:
      return error(Status::InvalidArgument(
          "unbound parameter $" +
          std::to_string(static_cast<const ParameterExpr*>(expr)->ordinal() + 1) +
          "; prepare the statement and supply values"));
  }
  return error(Status::Internal("no kernel for " + expr->ToString()));
}

Result<Value> EvalConstant(Expression* expr) {
  RELOPT_RETURN_NOT_OK(expr->Bind(Schema()));
  TupleBatch row(1);
  row.AppendRow();
  ColumnVec out;
  RELOPT_RETURN_NOT_OK(CompileExpr(expr)->Eval(row, row.selection(), &out));
  return out.GetValue(0);
}

// ----------------------------------------------------------- BatchPredicate --

BatchPredicate::BatchPredicate(const Expression* pred) {
  for (const Expression* c : CollectConjuncts(pred)) {
    Conjunct conj;
    if (std::optional<ColumnLiteralCompare> fast = MatchColumnLiteralCompare(c)) {
      conj.lref = fast->col;
      conj.op = fast->op;
      conj.literal = fast->literal;
    } else if (std::optional<ColumnColumnCompare> cc = MatchColumnColumnCompare(c)) {
      conj.lref = cc->lcol;
      conj.rref = cc->rcol;
      conj.op = cc->op;
    } else {
      conj.tree = CompileExpr(c);
    }
    conjuncts_.push_back(std::move(conj));
  }
}

Status BatchPredicate::Filter(TupleBatch* batch) {
  std::vector<uint32_t>* sel = batch->mutable_selection();
  for (const Conjunct& conj : conjuncts_) {
    if (sel->empty()) break;
    size_t kept = 0;
    if (conj.tree != nullptr) {
      RELOPT_RETURN_NOT_OK(conj.tree->Eval(*batch, *sel, &scratch_));
      for (size_t k = 0; k < sel->size(); ++k) {
        bool is_null, b;
        ReadBool(scratch_, k, &is_null, &b);
        if (!is_null && b) (*sel)[kept++] = (*sel)[k];
      }
    } else if (conj.rref == nullptr) {
      if (conj.literal->is_null()) {
        // `col <op> NULL` is NULL for every row; the filter rejects them all.
        sel->clear();
        break;
      }
      const auto lcol = static_cast<size_t>(conj.lref->bound_index());
      for (uint32_t row : *sel) {
        const Tuple& t = batch->RowAt(row);
        if (lcol >= t.NumValues()) return ColumnOutOfRange(*conj.lref);
        const Value& v = t.At(lcol);
        if (v.is_null()) continue;  // NULL comparison -> NULL -> rejected
        RELOPT_ASSIGN_OR_RETURN(int c, v.Compare(*conj.literal));
        if (ApplyOp(conj.op, c)) (*sel)[kept++] = row;
      }
    } else {
      const auto lcol = static_cast<size_t>(conj.lref->bound_index());
      const auto rcol = static_cast<size_t>(conj.rref->bound_index());
      for (uint32_t row : *sel) {
        const Tuple& t = batch->RowAt(row);
        if (lcol >= t.NumValues()) return ColumnOutOfRange(*conj.lref);
        if (rcol >= t.NumValues()) return ColumnOutOfRange(*conj.rref);
        const Value& a = t.At(lcol);
        const Value& b = t.At(rcol);
        if (a.is_null() || b.is_null()) continue;  // NULL never passes
        RELOPT_ASSIGN_OR_RETURN(int c, a.Compare(b));
        if (ApplyOp(conj.op, c)) (*sel)[kept++] = row;
      }
    }
    sel->resize(kept);
  }
  return Status::OK();
}

// ----------------------------------------------------------- BatchProjector --

BatchProjector::BatchProjector(const std::vector<ExprPtr>* exprs) : exprs_(exprs) {
  size_t n = exprs->size();
  direct_col_.resize(n, -1);
  compiled_.resize(n);
  vecs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    direct_col_[i] = DirectColumnOf((*exprs)[i].get());
    if (direct_col_[i] < 0) compiled_[i] = CompileExpr((*exprs)[i].get());
  }
}

Status BatchProjector::Project(const TupleBatch& in, TupleBatch* out) {
  out->Clear();
  size_t n = in.NumSelected();
  for (size_t i = 0; i < exprs_->size(); ++i) {
    if (direct_col_[i] < 0) {
      RELOPT_RETURN_NOT_OK(compiled_[i]->Eval(in, in.selection(), &vecs_[i]));
    }
  }
  for (size_t k = 0; k < n; ++k) {
    const Tuple& row = in.SelectedRow(k);
    Tuple* slot = out->AppendRow();
    for (size_t i = 0; i < exprs_->size(); ++i) {
      int dc = direct_col_[i];
      if (dc < 0) {
        slot->Append(vecs_[i].GetValue(k));
      } else if (static_cast<size_t>(dc) < row.NumValues()) {
        slot->Append(row.At(static_cast<size_t>(dc)));
      } else {
        return ColumnOutOfRange(*(*exprs_)[i]);
      }
    }
  }
  return Status::OK();
}

// --------------------------------------------------------------- KeyEncoder --

KeyEncoder::KeyEncoder(std::vector<const Expression*> exprs, std::vector<bool> desc)
    : exprs_(std::move(exprs)), desc_(std::move(desc)) {
  size_t n = exprs_.size();
  desc_.resize(n);  // empty: all ascending
  exact_int_.resize(n);
  direct_col_.resize(n, -1);
  compiled_.resize(n);
  vecs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    exact_int_[i] = exprs_[i]->result_type() == TypeId::kInt64;
    direct_col_[i] = DirectColumnOf(exprs_[i]);
    if (direct_col_[i] < 0) compiled_[i] = CompileExpr(exprs_[i]);
  }
}

Status KeyEncoder::Encode(const TupleBatch& batch, std::vector<std::string>* keys) {
  last_batch_ = &batch;
  size_t n = batch.NumSelected();
  if (keys->size() < n) keys->resize(n);
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (direct_col_[i] < 0) {
      RELOPT_RETURN_NOT_OK(compiled_[i]->Eval(batch, batch.selection(), &vecs_[i]));
    }
  }
  Value storage;
  for (size_t k = 0; k < n; ++k) {
    const Tuple& row = batch.SelectedRow(k);
    std::string& key = (*keys)[k];
    key.clear();
    for (size_t i = 0; i < exprs_.size(); ++i) {
      size_t offset = key.size();
      int dc = direct_col_[i];
      if (dc >= 0) {
        if (static_cast<size_t>(dc) >= row.NumValues()) return ColumnOutOfRange(*exprs_[i]);
        EncodeKeyValue(row.At(static_cast<size_t>(dc)), &key, exact_int_[i]);
      } else {
        const ColumnVec& vec = vecs_[i];
        if (vec.boxed && !vec.NullAt(k)) {
          EncodeKeyValue(vec.BoxedAt(k), &key, exact_int_[i]);
        } else {
          storage = vec.GetValue(k);
          EncodeKeyValue(storage, &key, exact_int_[i]);
        }
      }
      if (desc_[i]) InvertKeyTail(&key, offset);
    }
  }
  return Status::OK();
}

Value KeyEncoder::KeyValue(size_t i, size_t k) const {
  int dc = direct_col_[i];
  if (dc >= 0) return last_batch_->SelectedRow(k).At(static_cast<size_t>(dc));
  return vecs_[i].GetValue(k);
}

// ---------------------------------------------------------- ComputeJoinKeys --

Status ComputeJoinKeys(const TupleBatch& batch, const std::vector<size_t>& key_cols,
                       const std::vector<bool>& exact_int,
                       std::vector<std::optional<std::string>>* keys) {
  size_t n = batch.NumSelected();
  if (keys->size() < n) keys->resize(n);
  for (size_t k = 0; k < n; ++k) {
    const Tuple& row = batch.SelectedRow(k);
    std::optional<std::string>& slot = (*keys)[k];
    if (!slot.has_value()) slot.emplace();
    std::string& key = *slot;
    key.clear();
    for (size_t i = 0; i < key_cols.size(); ++i) {
      const Value& v = row.At(key_cols[i]);
      if (v.is_null()) {
        slot.reset();  // NULL keys never match an equi join
        break;
      }
      EncodeKeyValue(v, &key, exact_int[i]);
    }
  }
  return Status::OK();
}

}  // namespace relopt
