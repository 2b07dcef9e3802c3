#include "catalog/catalog.h"

#include "storage/slotted_page.h"
#include "types/key_codec.h"
#include "types/tuple_batch.h"
#include "util/str_util.h"

namespace relopt {

namespace {

/// A row as InsertTuple writes it: its heap record and one key per index.
struct EncodedRow {
  std::string record;
  std::vector<std::string> keys;
};

/// Encodes `tuple` for `table`, failing where a write of it would.
Result<EncodedRow> EncodeRow(const TableInfo& table, const Tuple& tuple) {
  const Schema& schema = table.schema();
  if (tuple.NumValues() != schema.NumColumns()) {
    return Status::InvalidArgument("tuple has " + std::to_string(tuple.NumValues()) +
                                   " values, table '" + table.name() + "' has " +
                                   std::to_string(schema.NumColumns()) + " columns");
  }
  // Type-check against the schema (NULLs pass).
  for (size_t i = 0; i < tuple.NumValues(); ++i) {
    const Value& v = tuple.At(i);
    if (!v.is_null() && v.type() != schema.ColumnAt(i).type) {
      return Status::TypeError("value " + v.ToString() + " does not match column '" +
                               schema.ColumnAt(i).name + "' type " +
                               TypeIdToString(schema.ColumnAt(i).type));
    }
  }
  EncodedRow row;
  row.record = tuple.Serialize();
  if (row.record.size() > SlottedPage::kMaxRecordSize) {
    return Status::InvalidArgument("record of " + std::to_string(row.record.size()) +
                                   " bytes exceeds page capacity");
  }
  for (const IndexInfo* idx : table.indexes()) {
    row.keys.push_back(EncodeKeyFromTuple(tuple, idx->key_columns));
    if (row.keys.back().size() > BTree::kMaxKeySize) {
      return Status::InvalidArgument("index key exceeds " + std::to_string(BTree::kMaxKeySize) +
                                     " bytes");
    }
  }
  return row;
}

}  // namespace

std::string IndexInfo::KeyDescription(const Schema& schema) const {
  std::string out = name + "(";
  for (size_t i = 0; i < key_columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.ColumnAt(key_columns[i]).name;
  }
  out += ")";
  return out;
}

void TableInfo::RemoveIndex(const std::string& index_name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if ((*it)->name == index_name) {
      indexes_.erase(it);
      return;
    }
  }
}

Result<TableInfo*> Catalog::CreateTable(const std::string& name, Schema schema) {
  std::string key = ToLower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  RELOPT_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(pool_));
  auto info = std::make_unique<TableInfo>(name, std::move(schema), std::move(heap));
  TableInfo* raw = info.get();
  tables_[key] = std::move(info);
  BumpVersion();
  return raw;
}

Result<TableInfo*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("table '" + name + "' does not exist");
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(ToLower(name)) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("table '" + name + "' does not exist");
  TableInfo* table = it->second.get();
  // Drop dependent indexes first.
  std::vector<std::string> to_drop;
  for (IndexInfo* idx : table->indexes()) to_drop.push_back(idx->name);
  for (const std::string& idx_name : to_drop) {
    auto iit = indexes_.find(ToLower(idx_name));
    if (iit != indexes_.end()) {
      RELOPT_RETURN_NOT_OK(pool_->DropFilePages(iit->second->tree->file_id()));
      pool_->disk()->DeleteFile(iit->second->tree->file_id());
      indexes_.erase(iit);
    }
  }
  RELOPT_RETURN_NOT_OK(pool_->DropFilePages(table->heap()->file_id()));
  pool_->disk()->DeleteFile(table->heap()->file_id());
  tables_.erase(it);
  BumpVersion();
  return Status::OK();
}

Result<IndexInfo*> Catalog::CreateIndex(const std::string& index_name,
                                        const std::string& table_name,
                                        const std::vector<std::string>& column_names,
                                        bool clustered) {
  std::string key = ToLower(index_name);
  if (indexes_.count(key)) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  RELOPT_ASSIGN_OR_RETURN(TableInfo * table, GetTable(table_name));
  std::vector<size_t> key_columns;
  for (const std::string& col : column_names) {
    RELOPT_ASSIGN_OR_RETURN(size_t idx, table->schema().IndexOf(col));
    key_columns.push_back(idx);
  }
  if (key_columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }

  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->table_name = table->name();
  info->key_columns = key_columns;
  info->clustered = clustered;
  RELOPT_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool_));
  info->tree = std::make_unique<BTree>(std::move(tree));

  // Bulk-build from existing rows, a batch at a time: the cursor unlatches
  // its heap page before the batch's B+tree inserts latch others.
  HeapFile::PageCursor cursor(table->heap());
  RELOPT_RETURN_NOT_OK(cursor.Rewind());
  const size_t num_cols = table->schema().NumColumns();
  TupleBatch batch;
  bool more = true;
  while (more) {
    batch.Clear();
    RELOPT_ASSIGN_OR_RETURN(more, cursor.NextBatch(num_cols, &batch, /*with_rid=*/true));
    for (size_t r = 0; r < batch.NumRows(); ++r) {
      const Tuple& row = batch.RowAt(r);
      NoteKey(info.get(), row);
      RELOPT_RETURN_NOT_OK(info->tree->Insert(EncodeKeyFromTuple(row, key_columns),
                                              Rid::Unpack(row.At(num_cols).AsInt())));
    }
  }

  IndexInfo* raw = info.get();
  indexes_[key] = std::move(info);
  table->AddIndex(raw);
  BumpVersion();
  return raw;
}

Result<IndexInfo*> Catalog::GetIndex(const std::string& index_name) const {
  auto it = indexes_.find(ToLower(index_name));
  if (it == indexes_.end()) return Status::NotFound("index '" + index_name + "' does not exist");
  return it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

Status Catalog::CheckRow(const TableInfo* table, const Tuple& tuple) const {
  return EncodeRow(*table, tuple).status();
}

Result<Rid> Catalog::InsertTuple(TableInfo* table, const Tuple& tuple) {
  RELOPT_ASSIGN_OR_RETURN(EncodedRow row, EncodeRow(*table, tuple));
  RELOPT_ASSIGN_OR_RETURN(Rid rid, table->heap()->Insert(row.record));
  const std::vector<IndexInfo*>& indexes = table->indexes();
  for (size_t i = 0; i < indexes.size(); ++i) {
    NoteKey(indexes[i], tuple);
    RELOPT_RETURN_NOT_OK(indexes[i]->tree->Insert(row.keys[i], rid));
  }
  table->set_live_rows(table->live_rows() + 1);
  return rid;
}

void Catalog::NoteKey(IndexInfo* index, const Tuple& row) {
  if (index->big_int_keys) return;
  for (size_t c : index->key_columns) {
    if (!IsBigInt(row.At(c))) continue;
    index->big_int_keys = true;
    BumpVersion();
    return;
  }
}

Status Catalog::DeleteTuple(TableInfo* table, Rid rid) {
  // The deleted record gives the row's index keys.
  RELOPT_ASSIGN_OR_RETURN(std::string record, table->heap()->Delete(rid));
  RELOPT_ASSIGN_OR_RETURN(Tuple tuple, Tuple::Deserialize(record, table->schema().NumColumns()));
  for (IndexInfo* idx : table->indexes()) {
    RELOPT_RETURN_NOT_OK(idx->tree->Delete(EncodeKeyFromTuple(tuple, idx->key_columns), rid));
  }
  table->set_live_rows(table->live_rows() > 0 ? table->live_rows() - 1 : 0);
  return Status::OK();
}

Status Catalog::AnalyzeTable(const std::string& table_name, size_t num_buckets) {
  RELOPT_ASSIGN_OR_RETURN(TableInfo * table, GetTable(table_name));
  StatsBuilder builder(table->schema(), num_buckets);
  HeapFile::PageCursor cursor(table->heap());
  RELOPT_RETURN_NOT_OK(cursor.Rewind());
  TupleBatch batch;
  uint64_t rows = 0;
  bool more = true;
  while (more) {
    batch.Clear();
    RELOPT_ASSIGN_OR_RETURN(more, cursor.NextBatch(table->schema().NumColumns(), &batch));
    for (size_t r = 0; r < batch.NumRows(); ++r) builder.AddRow(batch.MutableRowAt(r));
    rows += batch.NumRows();
  }
  RELOPT_ASSIGN_OR_RETURN(TableStats stats, builder.Finish(table->heap()->NumPages()));
  table->set_stats(std::move(stats));
  table->set_has_stats(true);
  table->set_live_rows(rows);
  // New statistics can change the optimizer's choices: retire cached plans.
  BumpVersion();
  return Status::OK();
}

}  // namespace relopt
