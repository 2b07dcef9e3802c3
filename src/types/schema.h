// Schema: ordered, named, typed columns of a relation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "types/type.h"
#include "util/result.h"

namespace relopt {

/// One column of a schema. `table` is the binding qualifier (table name or
/// alias) used to resolve `t.c` references; it may be empty for derived
/// columns.
struct Column {
  std::string name;
  TypeId type;
  std::string table;  // qualifier; empty for computed columns

  Column(std::string name_in, TypeId type_in, std::string table_in = "")
      : name(std::move(name_in)), type(type_in), table(std::move(table_in)) {}

  /// "t.c" or "c".
  std::string QualifiedName() const { return table.empty() ? name : table + "." + name; }
};

/// \brief Ordered list of columns describing tuples of a relation.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t NumColumns() const { return columns_.size(); }
  const Column& ColumnAt(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column c) { columns_.push_back(std::move(c)); }

  /// \brief Resolves a possibly-qualified column reference.
  ///
  /// `table` empty matches any qualifier; ambiguous unqualified references
  /// (same name under two qualifiers) are a BindError. Name matching is
  /// case-insensitive.
  Result<size_t> IndexOf(const std::string& table, const std::string& name) const;

  /// Convenience for unqualified lookup.
  Result<size_t> IndexOf(const std::string& name) const { return IndexOf("", name); }

  /// Concatenation (left ++ right).
  static Schema Concat(const Schema& left, const Schema& right);
  /// The columns at `columns` (ascending positions) of `left ++ right`: the
  /// schema of a join whose rows hold only those of its inputs' columns.
  static Schema Concat(const Schema& left, const Schema& right,
                       std::span<const uint32_t> columns);

  /// Re-qualifies every column with a new table alias (for FROM t AS a).
  Schema WithQualifier(const std::string& alias) const;

  /// "(t.a int64, t.b string)".
  std::string ToString() const;

  bool Equals(const Schema& other) const;

 private:
  std::vector<Column> columns_;
};

}  // namespace relopt
