#include "workload/generator.h"

#include <algorithm>

namespace relopt {

Status GenerateTable(Database* db, const TableSpec& spec) {
  Schema schema;
  for (const ColumnSpec& col : spec.columns) {
    schema.AddColumn(Column(col.name, col.type, spec.name));
  }
  RELOPT_ASSIGN_OR_RETURN(TableInfo * table, db->catalog()->CreateTable(spec.name, schema));

  Rng rng(spec.seed);
  std::vector<std::unique_ptr<ZipfGenerator>> zipfs(spec.columns.size());
  for (size_t c = 0; c < spec.columns.size(); ++c) {
    if (spec.columns[c].dist == ColumnDist::kZipfInt) {
      zipfs[c] = std::make_unique<ZipfGenerator>(std::max<uint64_t>(1, spec.columns[c].ndv),
                                                 spec.columns[c].skew);
    }
  }

  std::vector<Tuple> rows;
  rows.reserve(spec.num_rows);
  for (uint64_t r = 0; r < spec.num_rows; ++r) {
    std::vector<Value> values;
    values.reserve(spec.columns.size());
    for (size_t c = 0; c < spec.columns.size(); ++c) {
      const ColumnSpec& col = spec.columns[c];
      if (col.null_fraction > 0 && rng.Bernoulli(col.null_fraction)) {
        values.push_back(Value::Null(col.type));
        continue;
      }
      switch (col.dist) {
        case ColumnDist::kSerial:
          values.push_back(Value::Int(static_cast<int64_t>(r)));
          break;
        case ColumnDist::kUniformInt:
          values.push_back(Value::Int(rng.UniformInt(col.min_value, col.max_value)));
          break;
        case ColumnDist::kZipfInt:
          values.push_back(Value::Int(static_cast<int64_t>(zipfs[c]->Next(&rng))));
          break;
        case ColumnDist::kUniformDouble: {
          double lo = static_cast<double>(col.min_value);
          double hi = static_cast<double>(col.max_value);
          values.push_back(Value::Double(lo + rng.UniformDouble() * (hi - lo)));
          break;
        }
        case ColumnDist::kRandomString:
          values.push_back(Value::String(rng.RandomString(col.string_length)));
          break;
      }
    }
    rows.emplace_back(std::move(values));
  }

  if (!spec.sort_by.empty()) {
    RELOPT_ASSIGN_OR_RETURN(size_t key, schema.IndexOf(spec.sort_by));
    Status sort_status = Status::OK();
    std::stable_sort(rows.begin(), rows.end(), [&](const Tuple& a, const Tuple& b) {
      Result<int> c = a.At(key).Compare(b.At(key));
      if (!c.ok()) {
        sort_status = c.status();
        return false;
      }
      return *c < 0;
    });
    RELOPT_RETURN_NOT_OK(sort_status);
  }

  for (const Tuple& row : rows) {
    RELOPT_ASSIGN_OR_RETURN(Rid rid, db->catalog()->InsertTuple(table, row));
    (void)rid;
  }

  if (spec.analyze) {
    RELOPT_RETURN_NOT_OK(db->catalog()->AnalyzeTable(spec.name));
  }
  return Status::OK();
}

}  // namespace relopt
