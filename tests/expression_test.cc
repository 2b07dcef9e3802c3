// Expression binding, evaluation, and three-valued logic tests.
#include <gtest/gtest.h>

#include "expr/conjuncts.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace relopt {
namespace {

Schema TestSchema() {
  Schema s;
  s.AddColumn(Column("a", TypeId::kInt64, "t"));
  s.AddColumn(Column("b", TypeId::kString, "t"));
  s.AddColumn(Column("c", TypeId::kDouble, "t"));
  s.AddColumn(Column("d", TypeId::kInt64, "u"));
  return s;
}

Tuple TestRow() {
  return Tuple({Value::Int(5), Value::String("hi"), Value::Double(2.5), Value::Int(10)});
}

/// Evaluates `expr` (bound or not) on `row` through its compiled kernel.
Result<Value> EvalOn(const Expression& expr, const Tuple& row = TestRow()) {
  TupleBatch batch(1);
  *batch.AppendRow() = row;
  ColumnVec out;
  RELOPT_RETURN_NOT_OK(CompileExpr(&expr)->Eval(batch, batch.selection(), &out));
  return out.GetValue(0);
}

Value EvalBound(ExprPtr expr, const Tuple& row = TestRow()) {
  Status st = expr->Bind(TestSchema());
  EXPECT_TRUE(st.ok()) << st.ToString();
  Result<Value> v = EvalOn(*expr, row);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? v.MoveValue() : Value::Null();
}

TEST(ExpressionTest, LiteralEval) {
  EXPECT_EQ(EvalBound(MakeLiteral(Value::Int(3))).AsInt(), 3);
  EXPECT_TRUE(EvalBound(MakeLiteral(Value::Null())).is_null());
}

TEST(ExpressionTest, ColumnRefBindsAndEvals) {
  EXPECT_EQ(EvalBound(MakeColumnRef("t", "a")).AsInt(), 5);
  EXPECT_EQ(EvalBound(MakeColumnRef("", "d")).AsInt(), 10);
  EXPECT_EQ(EvalBound(MakeColumnRef("u", "d")).AsInt(), 10);
}

TEST(ExpressionTest, UnboundColumnEvalFails) {
  ExprPtr ref = MakeColumnRef("t", "a");
  Result<Value> v = EvalOn(*ref);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().ToString(), "Internal: evaluating unbound column reference t.a");
}

TEST(ExpressionTest, BindUnknownColumnFails) {
  ExprPtr ref = MakeColumnRef("t", "zzz");
  EXPECT_EQ(ref->Bind(TestSchema()).code(), StatusCode::kBindError);
}

TEST(ExpressionTest, ComparisonOps) {
  auto cmp = [&](CompareOp op, Value l, Value r) {
    return EvalBound(MakeComparison(op, MakeLiteral(std::move(l)), MakeLiteral(std::move(r))));
  };
  EXPECT_TRUE(cmp(CompareOp::kEq, Value::Int(1), Value::Int(1)).AsBool());
  EXPECT_FALSE(cmp(CompareOp::kEq, Value::Int(1), Value::Int(2)).AsBool());
  EXPECT_TRUE(cmp(CompareOp::kNe, Value::Int(1), Value::Int(2)).AsBool());
  EXPECT_TRUE(cmp(CompareOp::kLt, Value::Int(1), Value::Double(1.5)).AsBool());
  EXPECT_TRUE(cmp(CompareOp::kLe, Value::Int(1), Value::Int(1)).AsBool());
  EXPECT_TRUE(cmp(CompareOp::kGt, Value::String("b"), Value::String("a")).AsBool());
  EXPECT_TRUE(cmp(CompareOp::kGe, Value::Int(2), Value::Int(2)).AsBool());
}

TEST(ExpressionTest, ComparisonWithNullIsNull) {
  Value v = EvalBound(
      MakeComparison(CompareOp::kEq, MakeLiteral(Value::Null()), MakeLiteral(Value::Int(1))));
  EXPECT_TRUE(v.is_null());
}

TEST(ExpressionTest, ComparisonTypeMismatchFailsBind) {
  ExprPtr e = MakeComparison(CompareOp::kEq, MakeColumnRef("t", "a"), MakeColumnRef("t", "b"));
  EXPECT_EQ(e->Bind(TestSchema()).code(), StatusCode::kTypeError);
}

TEST(ExpressionTest, ThreeValuedAnd) {
  auto and_of = [&](Value l, Value r) {
    return EvalBound(MakeAnd(MakeLiteral(std::move(l)), MakeLiteral(std::move(r))));
  };
  EXPECT_TRUE(and_of(Value::Bool(true), Value::Bool(true)).AsBool());
  EXPECT_FALSE(and_of(Value::Bool(true), Value::Bool(false)).AsBool());
  // NULL AND false = false; NULL AND true = NULL.
  EXPECT_FALSE(and_of(Value::Null(TypeId::kBool), Value::Bool(false)).AsBool());
  EXPECT_TRUE(and_of(Value::Null(TypeId::kBool), Value::Bool(true)).is_null());
}

TEST(ExpressionTest, ThreeValuedOr) {
  auto or_of = [&](Value l, Value r) {
    return EvalBound(MakeOr(MakeLiteral(std::move(l)), MakeLiteral(std::move(r))));
  };
  EXPECT_TRUE(or_of(Value::Null(TypeId::kBool), Value::Bool(true)).AsBool());
  EXPECT_TRUE(or_of(Value::Null(TypeId::kBool), Value::Bool(false)).is_null());
  EXPECT_FALSE(or_of(Value::Bool(false), Value::Bool(false)).AsBool());
}

TEST(ExpressionTest, NotWithNull) {
  EXPECT_TRUE(EvalBound(MakeNot(MakeLiteral(Value::Null(TypeId::kBool)))).is_null());
  EXPECT_FALSE(EvalBound(MakeNot(MakeLiteral(Value::Bool(true)))).AsBool());
}

TEST(ExpressionTest, Arithmetic) {
  auto arith = [&](ArithOp op, Value l, Value r) {
    return EvalBound(std::make_unique<ArithmeticExpr>(op, MakeLiteral(std::move(l)),
                                                      MakeLiteral(std::move(r))));
  };
  EXPECT_EQ(arith(ArithOp::kAdd, Value::Int(2), Value::Int(3)).AsInt(), 5);
  EXPECT_EQ(arith(ArithOp::kSub, Value::Int(2), Value::Int(3)).AsInt(), -1);
  EXPECT_EQ(arith(ArithOp::kMul, Value::Int(4), Value::Int(3)).AsInt(), 12);
  EXPECT_EQ(arith(ArithOp::kDiv, Value::Int(7), Value::Int(2)).AsInt(), 3);
  EXPECT_EQ(arith(ArithOp::kMod, Value::Int(7), Value::Int(2)).AsInt(), 1);
  EXPECT_DOUBLE_EQ(arith(ArithOp::kAdd, Value::Int(1), Value::Double(0.5)).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(arith(ArithOp::kDiv, Value::Int(7), Value::Double(2.0)).AsDouble(), 3.5);
}

TEST(ExpressionTest, DivisionByZeroYieldsNull) {
  auto arith = [&](Value l, Value r) {
    return EvalBound(std::make_unique<ArithmeticExpr>(ArithOp::kDiv, MakeLiteral(std::move(l)),
                                                      MakeLiteral(std::move(r))));
  };
  EXPECT_TRUE(arith(Value::Int(1), Value::Int(0)).is_null());
  EXPECT_TRUE(arith(Value::Double(1), Value::Double(0)).is_null());
}

TEST(ExpressionTest, ArithmeticTypePropagation) {
  ExprPtr int_expr = std::make_unique<ArithmeticExpr>(ArithOp::kAdd, MakeColumnRef("t", "a"),
                                                      MakeLiteral(Value::Int(1)));
  ASSERT_TRUE(int_expr->Bind(TestSchema()).ok());
  EXPECT_EQ(int_expr->result_type(), TypeId::kInt64);

  ExprPtr dbl_expr = std::make_unique<ArithmeticExpr>(ArithOp::kAdd, MakeColumnRef("t", "a"),
                                                      MakeColumnRef("t", "c"));
  ASSERT_TRUE(dbl_expr->Bind(TestSchema()).ok());
  EXPECT_EQ(dbl_expr->result_type(), TypeId::kDouble);
}

TEST(ExpressionTest, IsNull) {
  EXPECT_TRUE(EvalBound(std::make_unique<IsNullExpr>(MakeLiteral(Value::Null()), false)).AsBool());
  EXPECT_FALSE(EvalBound(std::make_unique<IsNullExpr>(MakeLiteral(Value::Int(1)), false)).AsBool());
  EXPECT_TRUE(EvalBound(std::make_unique<IsNullExpr>(MakeLiteral(Value::Int(1)), true)).AsBool());
}

TEST(ExpressionTest, CloneIsDeepAndKeepsBinding) {
  ExprPtr e = MakeComparison(CompareOp::kGt, MakeColumnRef("t", "a"), MakeLiteral(Value::Int(3)));
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  ExprPtr clone = e->Clone();
  Result<Value> v = EvalOn(*clone);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->AsBool());
  EXPECT_EQ(clone->ToString(), e->ToString());
}

// Column references come out in source order: pre-order, and a CASE's WHEN
// before its THEN (QueryGraph reports the first bad reference).
TEST(ExpressionTest, CollectColumnRefsInSourceOrder) {
  std::vector<ExprPtr> whens, thens;
  whens.push_back(
      MakeComparison(CompareOp::kGt, MakeColumnRef("t", "a"), MakeColumnRef("u", "b")));
  whens.push_back(
      MakeComparison(CompareOp::kLt, MakeColumnRef("t", "c"), MakeLiteral(Value::Int(0))));
  thens.push_back(MakeColumnRef("u", "d"));
  thens.push_back(MakeColumnRef("t", "e"));
  ExprPtr e = MakeAnd(
      MakeComparison(CompareOp::kEq,
                     std::make_unique<CaseExpr>(std::move(whens), std::move(thens),
                                                MakeColumnRef("u", "f")),
                     MakeColumnRef("t", "g")),
      MakeNot(std::make_unique<IsNullExpr>(MakeColumnRef("u", "h"), false)));
  std::vector<const ColumnRefExpr*> refs;
  e->CollectColumnRefs(&refs);
  std::string order;
  for (const ColumnRefExpr* ref : refs) order += ref->name();
  EXPECT_EQ(order, "abdcefgh");
  std::vector<ColumnRefExpr*> mutable_refs;
  e->CollectColumnRefsMutable(&mutable_refs);
  ASSERT_EQ(mutable_refs.size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) EXPECT_EQ(mutable_refs[i], refs[i]);
}

TEST(ExpressionTest, ContainsAggregate) {
  ExprPtr agg = std::make_unique<AggregateCallExpr>(AggFunc::kSum, MakeColumnRef("t", "a"));
  ExprPtr wrapped = MakeComparison(CompareOp::kGt, std::move(agg), MakeLiteral(Value::Int(0)));
  EXPECT_TRUE(wrapped->ContainsAggregate());
  EXPECT_FALSE(MakeColumnRef("t", "a")->ContainsAggregate());
  // Below a CASE arm's THEN, inside a function argument.
  std::vector<ExprPtr> whens, thens, args;
  args.push_back(std::make_unique<AggregateCallExpr>(AggFunc::kMax, MakeColumnRef("t", "b")));
  whens.push_back(
      MakeComparison(CompareOp::kGt, MakeColumnRef("t", "a"), MakeLiteral(Value::Int(0))));
  thens.push_back(std::make_unique<FunctionCallExpr>(ScalarFunc::kAbs, std::move(args)));
  ExprPtr in_case = std::make_unique<CaseExpr>(std::move(whens), std::move(thens), nullptr);
  EXPECT_TRUE(in_case->ContainsAggregate());
}

TEST(ExpressionTest, AggregateDirectEvalIsError) {
  AggregateCallExpr agg(AggFunc::kCountStar, nullptr);
  EXPECT_EQ(EvalOn(agg).status().code(), StatusCode::kInternal);
}

TEST(ExpressionTest, OpHelpers) {
  EXPECT_EQ(SwapCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(SwapCompareOp(CompareOp::kGe), CompareOp::kLe);
  EXPECT_EQ(SwapCompareOp(CompareOp::kEq), CompareOp::kEq);
  EXPECT_EQ(NegateCompareOp(CompareOp::kLt), CompareOp::kGe);
  EXPECT_EQ(NegateCompareOp(CompareOp::kEq), CompareOp::kNe);
}

// ---------------------------------------------------------------- conjuncts --

TEST(ConjunctsTest, SplitNestedAnds) {
  ExprPtr e = MakeAnd(MakeAnd(MakeColumnRef("t", "x"), MakeColumnRef("t", "y")),
                      MakeColumnRef("t", "z"));
  std::vector<ExprPtr> parts = SplitConjuncts(std::move(e));
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->ToString(), "t.x");
  EXPECT_EQ(parts[2]->ToString(), "t.z");
}

TEST(ConjunctsTest, SplitLeavesOrsAlone) {
  ExprPtr e = MakeOr(MakeColumnRef("t", "x"), MakeColumnRef("t", "y"));
  std::vector<ExprPtr> parts = SplitConjuncts(std::move(e));
  EXPECT_EQ(parts.size(), 1u);
}

TEST(ConjunctsTest, CombineRoundTrip) {
  std::vector<ExprPtr> parts;
  parts.push_back(MakeColumnRef("t", "x"));
  parts.push_back(MakeColumnRef("t", "y"));
  ExprPtr combined = CombineConjuncts(std::move(parts));
  EXPECT_EQ(combined->ToString(), "(t.x AND t.y)");
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST(ConjunctsTest, MatchSargable) {
  ExprPtr e = MakeComparison(CompareOp::kLt, MakeColumnRef("t", "a"), MakeLiteral(Value::Int(9)));
  auto m = MatchSargable(*e);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->table, "t");
  EXPECT_EQ(m->column, "a");
  EXPECT_EQ(m->op, CompareOp::kLt);
  EXPECT_TRUE(m->constant.Equals(Value::Int(9)));
}

TEST(ConjunctsTest, MatchSargableSwapsLiteralFirst) {
  ExprPtr e = MakeComparison(CompareOp::kLt, MakeLiteral(Value::Int(9)), MakeColumnRef("t", "a"));
  auto m = MatchSargable(*e);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->op, CompareOp::kGt);  // 9 < a  <=>  a > 9
}

TEST(ConjunctsTest, MatchSargableRejectsNonPatterns) {
  EXPECT_FALSE(MatchSargable(*MakeColumnRef("t", "a")).has_value());
  EXPECT_FALSE(MatchSargable(*MakeComparison(CompareOp::kEq, MakeColumnRef("t", "a"),
                                             MakeColumnRef("u", "d")))
                   .has_value());
  // col = NULL never matches anything; not sargable.
  EXPECT_FALSE(MatchSargable(*MakeComparison(CompareOp::kEq, MakeColumnRef("t", "a"),
                                             MakeLiteral(Value::Null())))
                   .has_value());
}

TEST(ConjunctsTest, MatchEquiJoin) {
  ExprPtr e = MakeComparison(CompareOp::kEq, MakeColumnRef("t", "a"), MakeColumnRef("u", "d"));
  auto m = MatchEquiJoin(*e);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->left_table, "t");
  EXPECT_EQ(m->right_column, "d");
}

TEST(ConjunctsTest, MatchEquiJoinRejectsSameTableAndNonEq) {
  EXPECT_FALSE(MatchEquiJoin(*MakeComparison(CompareOp::kEq, MakeColumnRef("t", "a"),
                                             MakeColumnRef("t", "c")))
                   .has_value());
  EXPECT_FALSE(MatchEquiJoin(*MakeComparison(CompareOp::kLt, MakeColumnRef("t", "a"),
                                             MakeColumnRef("u", "d")))
                   .has_value());
}

}  // namespace
}  // namespace relopt
