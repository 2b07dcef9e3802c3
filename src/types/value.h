// Value: a single nullable scalar datum.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "types/type.h"
#include "util/result.h"
#include "util/status.h"

namespace relopt {

/// -1, 0 or 1 as `a` is less than, equal to or greater than `b`.
inline int ThreeWay(auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// \brief A nullable scalar value: NULL, bool, int64, double, or string.
///
/// Values are small, copyable, and carry their own runtime type. Comparison
/// between int64 and double coerces to double (SQL numeric comparison).
class Value {
 public:
  /// NULL value (typed as int64 by default; see MakeNull to carry a type).
  Value() : type_(TypeId::kInt64), repr_(std::monostate{}) {}

  static Value Null(TypeId type = TypeId::kInt64) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Bool(bool b) { return Value(TypeId::kBool, b); }
  static Value Int(int64_t i) { return Value(TypeId::kInt64, i); }
  static Value Double(double d) { return Value(TypeId::kDouble, d); }
  static Value String(std::string s) { return Value(TypeId::kString, std::move(s)); }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  TypeId type() const { return type_; }

  /// Typed accessors; must match type() and be non-null.
  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Numeric value as double (int64 is widened). Must be numeric, non-null.
  double NumericAsDouble() const {
    return type_ == TypeId::kInt64 ? static_cast<double>(AsInt()) : AsDouble();
  }

  /// \brief Three-way comparison. NULLs sort before all non-nulls (used by
  /// sorting); SQL NULL semantics for predicates are handled in the
  /// expression evaluator, not here.
  ///
  /// Returns TypeError for incomparable types (e.g. string vs int).
  Result<int> Compare(const Value& other) const;

  /// Equality under Compare()==0; incomparable types are unequal.
  bool Equals(const Value& other) const;

  /// SQL-literal-ish rendering: NULL, true, 42, 3.5, 'abc'.
  std::string ToString() const;

  /// Casts to `target`; numeric widening/narrowing and string parsing.
  Result<Value> CastTo(TypeId target) const;

  /// Serialization into a byte buffer (appends). Format: 1-byte tag then
  /// fixed or length-prefixed payload.
  void SerializeTo(std::string* out) const;
  /// Bytes SerializeTo appends: 2 for NULL and bool, 9 for int and double,
  /// 5 + length for strings.
  size_t SerializedSize() const;

  /// Deserializes one value from `data` at `*offset`, advancing it.
  static Result<Value> DeserializeFrom(std::string_view data, size_t* offset);
  /// Moves `*offset` past one serialized value, checking its tag and bounds
  /// as DeserializeFrom does, without building it.
  static Status SkipFrom(std::string_view data, size_t* offset);

  bool operator==(const Value& other) const { return Equals(other); }

 private:
  template <typename T>
  Value(TypeId type, T v) : type_(type), repr_(std::move(v)) {}

  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> repr_;
};

}  // namespace relopt
