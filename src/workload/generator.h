// Synthetic table generation — the substitute for the paper-era workload.
//
// Distributions, cardinalities, NDVs, and physical ordering are all
// controllable and seeded, so every experiment in bench/ is reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "util/rng.h"

namespace relopt {

/// How a generated column's values are drawn.
enum class ColumnDist {
  kSerial,        ///< 0, 1, 2, ... (a primary key)
  kUniformInt,    ///< uniform over [min_value, max_value]
  kZipfInt,       ///< Zipf(skew) over [1, ndv]; rank 1 most frequent
  kUniformDouble, ///< uniform double in [min_value, max_value)
  kRandomString,  ///< random lower-case string of `string_length`
};

struct ColumnSpec {
  std::string name;
  TypeId type = TypeId::kInt64;
  ColumnDist dist = ColumnDist::kUniformInt;
  int64_t min_value = 0;
  int64_t max_value = 0;
  uint64_t ndv = 100;          ///< for kZipfInt
  double skew = 0.0;           ///< for kZipfInt (0 = uniform)
  size_t string_length = 16;   ///< for kRandomString
  double null_fraction = 0.0;

  static ColumnSpec Serial(std::string name_in) {
    ColumnSpec s;
    s.name = std::move(name_in);
    s.dist = ColumnDist::kSerial;
    return s;
  }
  static ColumnSpec Uniform(std::string name_in, int64_t lo, int64_t hi) {
    ColumnSpec s;
    s.name = std::move(name_in);
    s.dist = ColumnDist::kUniformInt;
    s.min_value = lo;
    s.max_value = hi;
    return s;
  }
  static ColumnSpec Zipf(std::string name_in, uint64_t ndv_in, double skew_in) {
    ColumnSpec s;
    s.name = std::move(name_in);
    s.dist = ColumnDist::kZipfInt;
    s.ndv = ndv_in;
    s.skew = skew_in;
    return s;
  }
};

struct TableSpec {
  std::string name;
  uint64_t num_rows = 1000;
  std::vector<ColumnSpec> columns;
  /// If non-empty, rows are loaded physically sorted by this column
  /// (a clustered index on it is then honest).
  std::string sort_by;
  uint64_t seed = 42;
  bool analyze = true;  ///< run ANALYZE after loading
};

/// Creates and loads the table described by `spec` into `db`.
Status GenerateTable(Database* db, const TableSpec& spec);

}  // namespace relopt
