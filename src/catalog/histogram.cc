#include "catalog/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/str_util.h"

namespace relopt {

Status SortValues(std::vector<Value>* values) {
  Status status = Status::OK();
  auto less = [&](const Value& a, const Value& b) {
    Result<int> c = a.Compare(b);
    if (!c.ok()) {
      status = c.status();
      return false;
    }
    return *c < 0;
  };
  if (!std::is_sorted(values->begin(), values->end(), less) && status.ok()) {
    std::sort(values->begin(), values->end(), less);
  }
  return status;
}

Result<EquiDepthHistogram> EquiDepthHistogram::Build(std::vector<Value> values,
                                                     size_t num_buckets) {
  EquiDepthHistogram hist;
  if (values.empty() || num_buckets == 0) return hist;
  RELOPT_RETURN_NOT_OK(SortValues(&values));

  const uint64_t n = values.size();
  const uint64_t per_bucket = std::max<uint64_t>(1, (n + num_buckets - 1) / num_buckets);
  size_t i = 0;
  while (i < values.size()) {
    size_t end = std::min(values.size(), i + static_cast<size_t>(per_bucket));
    // Extend so equal values never straddle buckets (keeps EstimateEq exact
    // for heavy hitters).
    while (end < values.size() && values[end].Equals(values[end - 1])) ++end;
    Bucket b;
    b.lo = values[i];
    b.hi = values[end - 1];
    b.count = end - i;
    b.ndv = 1;
    for (size_t j = i + 1; j < end; ++j) {
      if (!values[j].Equals(values[j - 1])) ++b.ndv;
    }
    hist.buckets_.push_back(std::move(b));
    i = end;
  }
  hist.total_ = n;
  return hist;
}

double EquiDepthHistogram::FractionWithin(const Bucket& b, const Value& v) {
  if (IsNumeric(v.type()) && IsNumeric(b.lo.type())) {
    double lo = b.lo.NumericAsDouble();
    double hi = b.hi.NumericAsDouble();
    double x = v.NumericAsDouble();
    if (hi <= lo) return 1.0;
    return std::clamp((x - lo) / (hi - lo), 0.0, 1.0);
  }
  return 0.5;  // strings: midpoint assumption
}

double EquiDepthHistogram::EstimateEq(const Value& v) const {
  if (total_ == 0 || v.is_null()) return 0.0;
  for (const Bucket& b : buckets_) {
    Result<int> clo = v.Compare(b.lo);
    Result<int> chi = v.Compare(b.hi);
    if (!clo.ok() || !chi.ok()) return 0.0;
    if (*clo >= 0 && *chi <= 0) {
      // Uniform within the bucket's distinct values.
      double bucket_frac = static_cast<double>(b.count) / static_cast<double>(total_);
      return bucket_frac / static_cast<double>(std::max<uint64_t>(1, b.ndv));
    }
  }
  return 0.0;
}

double EquiDepthHistogram::EstimateLess(const Value& v, bool inclusive) const {
  if (total_ == 0 || v.is_null()) return 0.0;
  double rows = 0;
  for (const Bucket& b : buckets_) {
    Result<int> clo = v.Compare(b.lo);
    Result<int> chi = v.Compare(b.hi);
    if (!clo.ok() || !chi.ok()) return 0.0;
    if (*chi > 0) {
      rows += static_cast<double>(b.count);  // bucket entirely below v
    } else if (*clo < 0) {
      break;  // bucket entirely above v
    } else {
      double frac = FractionWithin(b, v);
      rows += static_cast<double>(b.count) * frac;
      if (inclusive) {
        rows += static_cast<double>(b.count) / static_cast<double>(std::max<uint64_t>(1, b.ndv));
      }
      break;
    }
  }
  return std::clamp(rows / static_cast<double>(total_), 0.0, 1.0);
}

double EquiDepthHistogram::EstimateRange(const Value* lo, bool lo_inclusive, const Value* hi,
                                         bool hi_inclusive) const {
  if (total_ == 0) return 0.0;
  double below_hi = hi ? EstimateLess(*hi, hi_inclusive) : 1.0;
  double below_lo = lo ? EstimateLess(*lo, !lo_inclusive) : 0.0;
  return std::clamp(below_hi - below_lo, 0.0, 1.0);
}

std::string EquiDepthHistogram::ToString() const {
  std::string out = "histogram(" + std::to_string(buckets_.size()) + " buckets, " +
                    std::to_string(total_) + " rows)";
  for (const Bucket& b : buckets_) {
    out += "\n  [" + b.lo.ToString() + ", " + b.hi.ToString() + "] count=" +
           std::to_string(b.count) + " ndv=" + std::to_string(b.ndv);
  }
  return out;
}

}  // namespace relopt
