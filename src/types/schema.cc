#include "types/schema.h"

#include "util/str_util.h"

namespace relopt {

Result<size_t> Schema::IndexOf(const std::string& table, const std::string& name) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (!EqualsIgnoreCase(c.name, name)) continue;
    if (!table.empty() && !EqualsIgnoreCase(c.table, table)) continue;
    if (found.has_value()) {
      return Status::BindError("ambiguous column reference '" +
                               (table.empty() ? name : table + "." + name) + "'");
    }
    found = i;
  }
  if (!found.has_value()) {
    return Status::BindError("column '" + (table.empty() ? name : table + "." + name) +
                             "' not found");
  }
  return *found;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

Schema Schema::Concat(const Schema& left, const Schema& right,
                      std::span<const uint32_t> columns) {
  std::vector<Column> cols;
  cols.reserve(columns.size());
  for (uint32_t c : columns) {
    const size_t width = left.NumColumns();
    cols.push_back(c < width ? left.ColumnAt(c) : right.ColumnAt(c - width));
  }
  return Schema(std::move(cols));
}

Schema Schema::WithQualifier(const std::string& alias) const {
  std::vector<Column> cols = columns_;
  for (Column& c : cols) c.table = alias;
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].QualifiedName();
    out += " ";
    out += TypeIdToString(columns_[i].type);
  }
  out += ")";
  return out;
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type ||
        columns_[i].table != other.columns_[i].table) {
      return false;
    }
  }
  return true;
}

}  // namespace relopt
