#include <gtest/gtest.h>

#include "exec/executor.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/type.h"
#include "types/value.h"

namespace relopt {
namespace {

// ------------------------------------------------------------------ types --

TEST(TypeTest, ParseTypeNames) {
  TypeId t;
  EXPECT_TRUE(ParseTypeName("INT", &t));
  EXPECT_EQ(t, TypeId::kInt64);
  EXPECT_TRUE(ParseTypeName("double", &t));
  EXPECT_EQ(t, TypeId::kDouble);
  EXPECT_TRUE(ParseTypeName("Text", &t));
  EXPECT_EQ(t, TypeId::kString);
  EXPECT_TRUE(ParseTypeName("BOOLEAN", &t));
  EXPECT_EQ(t, TypeId::kBool);
  EXPECT_FALSE(ParseTypeName("blob", &t));
}

TEST(TypeTest, Comparability) {
  EXPECT_TRUE(AreComparable(TypeId::kInt64, TypeId::kDouble));
  EXPECT_TRUE(AreComparable(TypeId::kString, TypeId::kString));
  EXPECT_FALSE(AreComparable(TypeId::kString, TypeId::kInt64));
  EXPECT_FALSE(AreComparable(TypeId::kBool, TypeId::kInt64));
}

// ----------------------------------------------------------------- values --

TEST(ValueTest, ConstructorsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_TRUE(Value::Bool(true).AsBool());
}

TEST(ValueTest, CompareSameType) {
  EXPECT_EQ(*Value::Int(1).Compare(Value::Int(2)), -1);
  EXPECT_EQ(*Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_EQ(*Value::String("b").Compare(Value::String("a")), 1);
}

TEST(ValueTest, CompareMixedNumeric) {
  EXPECT_EQ(*Value::Int(2).Compare(Value::Double(2.5)), -1);
  EXPECT_EQ(*Value::Double(2.0).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, CompareIncompatibleTypesIsError) {
  Result<int> r = Value::Int(1).Compare(Value::String("a"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_EQ(*Value::Null().Compare(Value::Int(-100)), -1);
  EXPECT_EQ(*Value::Int(0).Compare(Value::Null()), 1);
  EXPECT_EQ(*Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Double(1.25).ToString(), "1.25");
  EXPECT_EQ(Value::String("o'x").ToString(), "'o''x'");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

TEST(ValueTest, CastNumeric) {
  EXPECT_EQ(Value::Double(3.9).CastTo(TypeId::kInt64)->AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value::Int(3).CastTo(TypeId::kDouble)->AsDouble(), 3.0);
}

TEST(ValueTest, CastStringToNumber) {
  EXPECT_EQ(Value::String("42").CastTo(TypeId::kInt64)->AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::String("2.5").CastTo(TypeId::kDouble)->AsDouble(), 2.5);
  EXPECT_FALSE(Value::String("xyz").CastTo(TypeId::kInt64).ok());
}

TEST(ValueTest, CastNullKeepsNullWithTargetType) {
  Result<Value> v = Value::Null(TypeId::kInt64).CastTo(TypeId::kString);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  EXPECT_EQ(v->type(), TypeId::kString);
}

TEST(ValueTest, SerializeRoundTripAllTypes) {
  std::vector<Value> values = {Value::Null(TypeId::kString),
                               Value::Bool(true),
                               Value::Int(-123456789),
                               Value::Double(3.14159),
                               Value::String("hello world"),
                               Value::String(std::string("a\0b", 3))};
  for (const Value& v : values) {
    std::string buf;
    v.SerializeTo(&buf);
    size_t offset = 0;
    Result<Value> back = Value::DeserializeFrom(buf, &offset);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(offset, buf.size());
    EXPECT_EQ(back->is_null(), v.is_null());
    if (!v.is_null()) {
      EXPECT_TRUE(back->Equals(v));
    }
  }
}

TEST(ValueTest, DeserializePastEndFails) {
  std::string buf;
  Value::Int(1).SerializeTo(&buf);
  buf.resize(buf.size() - 2);
  size_t offset = 0;
  EXPECT_FALSE(Value::DeserializeFrom(buf, &offset).ok());
}

// ----------------------------------------------------------------- schema --

Schema TwoTableSchema() {
  Schema s;
  s.AddColumn(Column("id", TypeId::kInt64, "t"));
  s.AddColumn(Column("name", TypeId::kString, "t"));
  s.AddColumn(Column("id", TypeId::kInt64, "u"));
  return s;
}

TEST(SchemaTest, QualifiedLookup) {
  Schema s = TwoTableSchema();
  EXPECT_EQ(*s.IndexOf("t", "id"), 0u);
  EXPECT_EQ(*s.IndexOf("u", "id"), 2u);
  EXPECT_EQ(*s.IndexOf("name"), 1u);
}

TEST(SchemaTest, UnqualifiedAmbiguousIsError) {
  Schema s = TwoTableSchema();
  Result<size_t> r = s.IndexOf("id");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(SchemaTest, MissingColumnIsError) {
  Schema s = TwoTableSchema();
  EXPECT_FALSE(s.IndexOf("zzz").ok());
  EXPECT_FALSE(s.IndexOf("v", "id").ok());
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema s = TwoTableSchema();
  EXPECT_EQ(*s.IndexOf("T", "ID"), 0u);
  EXPECT_EQ(*s.IndexOf("NAME"), 1u);
}

TEST(SchemaTest, ConcatAndQualify) {
  Schema a;
  a.AddColumn(Column("x", TypeId::kInt64, "a"));
  Schema b;
  b.AddColumn(Column("y", TypeId::kString, "b"));
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.NumColumns(), 2u);
  EXPECT_EQ(c.ColumnAt(1).QualifiedName(), "b.y");

  Schema q = c.WithQualifier("z");
  EXPECT_EQ(q.ColumnAt(0).QualifiedName(), "z.x");
  EXPECT_EQ(q.ColumnAt(1).QualifiedName(), "z.y");
}

TEST(SchemaTest, Equals) {
  Schema a = TwoTableSchema();
  Schema b = TwoTableSchema();
  EXPECT_TRUE(a.Equals(b));
  b.AddColumn(Column("extra", TypeId::kBool));
  EXPECT_FALSE(a.Equals(b));
}

// ----------------------------------------------------------------- tuples --

TEST(TupleTest, SerializeRoundTrip) {
  Tuple t({Value::Int(1), Value::String("ab"), Value::Null(), Value::Double(0.5)});
  std::string bytes = t.Serialize();
  Result<Tuple> back = Tuple::Deserialize(bytes, 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TupleTest, SerializedSizeMatchesSerialize) {
  const std::vector<Value> values = {
      Value::Null(),           Value::Null(TypeId::kInt64), Value::Null(TypeId::kString),
      Value::Bool(true),       Value::Bool(false),          Value::Int(0),
      Value::Int(INT64_MIN),   Value::Double(-2.5),         Value::String(""),
      Value::String("x"),      Value::String(std::string(5000, 'y')),
  };
  for (const Value& v : values) {
    std::string bytes;
    v.SerializeTo(&bytes);
    EXPECT_EQ(v.SerializedSize(), bytes.size()) << v.ToString();
    Tuple one({v});
    EXPECT_EQ(one.SerializedSize(), one.Serialize().size()) << v.ToString();
  }
  Tuple all(values);
  EXPECT_EQ(all.SerializedSize(), all.Serialize().size());
  EXPECT_EQ(Tuple().SerializedSize(), 0u);
}

TEST(TupleTest, DeserializeWrongCountFails) {
  Tuple t({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(Tuple::Deserialize(t.Serialize(), 3).ok());
  EXPECT_FALSE(Tuple::Deserialize(t.Serialize(), 1).ok());  // trailing bytes
}

TEST(TupleTest, Concat) {
  // A join's row builder choosing every column concatenates its inputs.
  Tuple a({Value::Int(1)});
  Tuple b({Value::String("x"), Value::Bool(true)});
  Tuple c({Value::Int(7), Value::Int(8), Value::Int(9), Value::Int(10)});
  JoinRowBuilder(AllColumns(3), 1).Build(a.values(), b.values(), &c);
  EXPECT_EQ(c.NumValues(), 3u);
  EXPECT_EQ(c.At(0).AsInt(), 1);
  EXPECT_EQ(c.At(1).AsString(), "x");
  EXPECT_EQ(c.At(2).AsBool(), true);
}

TEST(TupleTest, JoinRowBuilderKeepsChosenColumns) {
  Tuple a({Value::Int(1), Value::Int(2)});
  Tuple b({Value::String("x"), Value::Bool(true)});
  Tuple c({Value::Int(7)});
  const std::vector<uint32_t> columns = {1, 3};  // a's second, b's second
  JoinRowBuilder(columns, 2).Build(a.values(), b.values(), &c);
  ASSERT_EQ(c.NumValues(), 2u);
  EXPECT_EQ(c.At(0).AsInt(), 2);
  EXPECT_EQ(c.At(1).AsBool(), true);
  // No chosen column: a zero-width row.
  JoinRowBuilder({}, 2).Build(a.values(), b.values(), &c);
  EXPECT_EQ(c.NumValues(), 0u);
}

TEST(TupleTest, FillFromKeepsChosenFieldsAndChecksTheRest) {
  Tuple t({Value::Int(1), Value::String("skipped"), Value::Null(TypeId::kDouble), Value::Int(4)});
  const std::string bytes = t.Serialize();
  Tuple back;
  const std::vector<uint32_t> columns = {0, 3};
  ASSERT_TRUE(back.FillFrom(bytes, 4, columns).ok());
  ASSERT_EQ(back.NumValues(), 2u);
  EXPECT_EQ(back.At(0).AsInt(), 1);
  EXPECT_EQ(back.At(1).AsInt(), 4);
  ASSERT_TRUE(back.FillFrom(bytes, 4, {}).ok());  // zero-width
  EXPECT_EQ(back.NumValues(), 0u);
  // A skipped field is still checked: a truncated string, a bad tag and
  // trailing bytes all fail as a full decode does.
  EXPECT_FALSE(back.FillFrom(bytes.substr(0, 12), 4, columns).ok());
  std::string bad = bytes;
  bad[9] = 9;  // the skipped string's tag
  EXPECT_FALSE(back.FillFrom(bad, 4, columns).ok());
  EXPECT_FALSE(back.FillFrom(bytes + "x", 4, columns).ok());
  EXPECT_FALSE(back.FillFrom(bytes, 4, std::vector<uint32_t>{4}).ok());  // beyond the record
}

TEST(TupleTest, CompareTuplesMultiKeyWithDirections) {
  Tuple a({Value::Int(1), Value::String("b")});
  Tuple b({Value::Int(1), Value::String("a")});
  // Ascending on both: a > b due to second key.
  EXPECT_GT(*CompareTuples(a, b, {0, 1}, {false, false}), 0);
  // Descending second key flips it.
  EXPECT_LT(*CompareTuples(a, b, {0, 1}, {false, true}), 0);
}

TEST(TupleTest, ToString) {
  Tuple t({Value::Int(1), Value::Null()});
  EXPECT_EQ(t.ToString(), "(1, NULL)");
}

}  // namespace
}  // namespace relopt
