// Tuple: one row of values, with page serialization.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "types/schema.h"
#include "types/value.h"
#include "util/result.h"

namespace relopt {

/// \brief A row: an ordered vector of Values matching some Schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t NumValues() const { return values_.size(); }
  const Value& At(size_t i) const { return values_[i]; }
  Value& MutableAt(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(const Value& v) { values_.push_back(v); }
  void Append(Value&& v) { values_.push_back(std::move(v)); }

  /// Drops all values but keeps the vector's capacity, so a recycled Tuple
  /// refills without reallocating (the batch-execution hot path).
  void Clear() { values_.clear(); }

  /// Replaces the values with `left ++ right` in one sized copy, reusing the
  /// vector's capacity (the joins' output rows). Neither side may view this
  /// tuple's own values.
  void Concat(std::span<const Value> left, std::span<const Value> right);

  /// Serializes all values (self-describing tags; schema not required).
  std::string Serialize() const;
  /// Serialize().size(), without building the string (memory budgets).
  size_t SerializedSize() const;

  /// Parses a tuple with `num_values` values from `data`.
  static Result<Tuple> Deserialize(std::string_view data, size_t num_values);

  /// Clear-and-refill deserialization into an existing Tuple, reusing its
  /// value storage. Equivalent to `*this = *Deserialize(data, n)` without
  /// the vector reconstruction.
  Status FillFrom(std::string_view data, size_t num_values);

  /// "(1, 'x', NULL)".
  std::string ToString() const;

  bool operator==(const Tuple& other) const;

 private:
  std::vector<Value> values_;
};

/// Lexicographic three-way comparison of two tuples over the given column
/// indices and sort directions (true = descending).
Result<int> CompareTuples(const Tuple& a, const Tuple& b, const std::vector<size_t>& keys,
                          const std::vector<bool>& desc);

}  // namespace relopt
