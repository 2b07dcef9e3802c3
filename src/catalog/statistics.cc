#include "catalog/statistics.h"

#include "util/str_util.h"

namespace relopt {

std::string TableStats::ToString(const Schema& schema) const {
  std::string out = "rows=" + std::to_string(num_rows) + " pages=" + std::to_string(num_pages);
  for (size_t i = 0; i < columns.size() && i < schema.NumColumns(); ++i) {
    const ColumnStats& c = columns[i];
    out += "\n  " + schema.ColumnAt(i).QualifiedName() + ": ndv=" + std::to_string(c.ndv) +
           " nulls=" + std::to_string(c.num_null);
    if (c.min.has_value()) out += " min=" + c.min->ToString();
    if (c.max.has_value()) out += " max=" + c.max->ToString();
    if (!c.histogram.Empty()) {
      out += " buckets=" + std::to_string(c.histogram.buckets().size());
    }
  }
  return out;
}

StatsBuilder::StatsBuilder(const Schema& schema, size_t num_buckets)
    : num_columns_(schema.NumColumns()),
      num_buckets_(num_buckets),
      values_(num_columns_),
      null_counts_(num_columns_, 0) {}

void StatsBuilder::AddRow(Tuple* row) {
  ++num_rows_;
  for (size_t i = 0; i < num_columns_ && i < row->NumValues(); ++i) {
    if (row->At(i).is_null()) {
      ++null_counts_[i];
    } else {
      values_[i].push_back(std::move(row->MutableAt(i)));
    }
  }
}

Result<TableStats> StatsBuilder::Finish(uint64_t num_pages) {
  TableStats stats;
  stats.num_rows = num_rows_;
  stats.num_pages = num_pages;
  stats.columns.resize(num_columns_);
  for (size_t i = 0; i < num_columns_; ++i) {
    ColumnStats& c = stats.columns[i];
    c.num_null = null_counts_[i];
    c.num_non_null = values_[i].size();
    if (values_[i].empty()) continue;

    // Sort once: min/max/ndv all fall out, and the histogram builder finds
    // the values already sorted.
    std::vector<Value> sorted = std::move(values_[i]);
    RELOPT_RETURN_NOT_OK(SortValues(&sorted));

    c.min = sorted.front();
    c.max = sorted.back();
    c.ndv = 1;
    for (size_t j = 1; j < sorted.size(); ++j) {
      if (!sorted[j].Equals(sorted[j - 1])) ++c.ndv;
    }
    if (num_buckets_ > 0) {
      RELOPT_ASSIGN_OR_RETURN(c.histogram,
                              EquiDepthHistogram::Build(std::move(sorted), num_buckets_));
    }
  }
  return stats;
}

}  // namespace relopt
