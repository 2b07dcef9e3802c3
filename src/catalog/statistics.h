// Table and column statistics for the optimizer (ANALYZE output).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/histogram.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace relopt {

/// Per-column statistics.
struct ColumnStats {
  uint64_t num_non_null = 0;
  uint64_t num_null = 0;
  uint64_t ndv = 0;                    ///< distinct non-null values
  std::optional<Value> min;            ///< smallest non-null value
  std::optional<Value> max;            ///< largest non-null value
  EquiDepthHistogram histogram;        ///< empty unless ANALYZE built one

  double null_fraction() const {
    uint64_t total = num_non_null + num_null;
    return total == 0 ? 0.0 : static_cast<double>(num_null) / static_cast<double>(total);
  }
};

/// Per-table statistics.
struct TableStats {
  uint64_t num_rows = 0;
  uint64_t num_pages = 0;
  std::vector<ColumnStats> columns;    ///< aligned with the table schema

  bool Valid() const { return !columns.empty() || num_rows == 0; }
  std::string ToString(const Schema& schema) const;
};

/// \brief Incremental statistics builder: feed every row, then Finish().
///
/// Used by ANALYZE (full scan).
class StatsBuilder {
 public:
  /// `num_buckets` = 0 disables histograms (System-R mode keeps only
  /// ndv/min/max).
  explicit StatsBuilder(const Schema& schema, size_t num_buckets = 32);

  /// Takes the row's values (leaving them moved-from).
  void AddRow(Tuple* row);

  /// Produces the stats, consuming the collected values. `num_pages` comes
  /// from the heap file.
  Result<TableStats> Finish(uint64_t num_pages);

 private:
  size_t num_columns_;
  size_t num_buckets_;
  uint64_t num_rows_ = 0;
  // Collected non-null values per column (full materialization; the toy
  // engine's tables are laptop-scale by design).
  std::vector<std::vector<Value>> values_;
  std::vector<uint64_t> null_counts_;
};

}  // namespace relopt
