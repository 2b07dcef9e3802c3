// Equi-depth histograms for selectivity estimation.
#pragma once

#include <string>
#include <vector>

#include "types/value.h"
#include "util/result.h"

namespace relopt {

/// Sorts `values` by Value::Compare, unless they are in order already. They
/// must be mutually comparable, as one column's values are.
Status SortValues(std::vector<Value>* values);

/// \brief Equi-depth (equi-height) histogram over one column's values.
///
/// Buckets hold ~equal row counts; each records [lo, hi], row count, and
/// distinct count. Estimation interpolates linearly inside numeric buckets
/// and assumes the uniform midpoint for string buckets.
class EquiDepthHistogram {
 public:
  struct Bucket {
    Value lo;          // smallest value in bucket
    Value hi;          // largest value in bucket
    uint64_t count;    // rows in bucket
    uint64_t ndv;      // distinct values in bucket
  };

  EquiDepthHistogram() = default;

  /// Builds from non-null values (sorted here unless they already are).
  /// `num_buckets` is a target; fewer are produced for tiny inputs.
  static Result<EquiDepthHistogram> Build(std::vector<Value> values, size_t num_buckets);

  bool Empty() const { return total_ == 0; }
  uint64_t total_count() const { return total_; }
  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// Fraction of (non-null) rows with column == v.
  double EstimateEq(const Value& v) const;

  /// Fraction of rows with column < v (or <= if `inclusive`).
  double EstimateLess(const Value& v, bool inclusive) const;

  /// Fraction of rows in [lo, hi] with the given inclusivities; unbounded
  /// sides pass nullptr.
  double EstimateRange(const Value* lo, bool lo_inclusive, const Value* hi,
                       bool hi_inclusive) const;

  /// Human-readable dump (for EXPLAIN ANALYZE-style output and docs).
  std::string ToString() const;

 private:
  /// Position of v within a bucket, in [0,1] (linear for numerics).
  static double FractionWithin(const Bucket& b, const Value& v);

  std::vector<Bucket> buckets_;
  uint64_t total_ = 0;
};

}  // namespace relopt
