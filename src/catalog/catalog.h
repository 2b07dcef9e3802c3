// Catalog: tables, indexes, and their statistics.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/statistics.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "util/result.h"

namespace relopt {

class Catalog;

/// A secondary (or clustered) B+tree index over one table.
struct IndexInfo {
  std::string name;
  std::string table_name;
  std::vector<size_t> key_columns;   ///< column positions in the table schema
  bool clustered = false;            ///< heap is physically ordered by the key
  /// Set once the index holds an INT key beyond +-2^53, and never cleared.
  /// B+tree keys rank INTs as doubles, so such INTs can share a key and come
  /// back in RID order: the index no longer delivers its key order.
  bool big_int_keys = false;
  std::unique_ptr<BTree> tree;

  /// "idx(t.a, t.b)" for plan printing.
  std::string KeyDescription(const Schema& schema) const;
};

/// A base table: schema + heap storage + statistics + indexes.
class TableInfo {
 public:
  TableInfo(std::string name, Schema schema, HeapFile heap)
      : name_(std::move(name)), schema_(std::move(schema)), heap_(std::move(heap)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  HeapFile* heap() { return &heap_; }
  const HeapFile* heap() const { return &heap_; }

  const TableStats& stats() const { return stats_; }
  void set_stats(TableStats stats) { stats_ = std::move(stats); }
  bool has_stats() const { return has_stats_; }
  void set_has_stats(bool v) { has_stats_ = v; }

  const std::vector<IndexInfo*>& indexes() const { return indexes_; }
  void AddIndex(IndexInfo* index) { indexes_.push_back(index); }

  /// Rows inserted since creation (maintained by Catalog::InsertTuple).
  uint64_t live_rows() const { return live_rows_; }
  void set_live_rows(uint64_t n) { live_rows_ = n; }

 private:
  std::string name_;
  Schema schema_;
  HeapFile heap_;
  TableStats stats_;
  bool has_stats_ = false;
  std::vector<IndexInfo*> indexes_;
  uint64_t live_rows_ = 0;
};

/// \brief Owns all tables and indexes. Insert/delete go through the catalog
/// so secondary indexes stay consistent.
///
/// `version()` is a monotonically increasing schema/statistics epoch: it bumps
/// on every DDL (CREATE/DROP TABLE, CREATE INDEX), every ANALYZE and every
/// insert that marks an index's `big_int_keys`, i.e. on every change that can
/// alter an optimized plan's validity or the optimizer's choices. The shared
/// PlanCache keys cached plans on it.
class Catalog {
 public:
  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool() const { return pool_; }

  /// Current schema/statistics epoch (starts at 1). Thread-safe to read while
  /// concurrent queries run; bumps happen under the engine's exclusive
  /// statement lock.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Creates an empty table. AlreadyExists if the name is taken.
  Result<TableInfo*> CreateTable(const std::string& name, Schema schema);

  /// NotFound if absent. Name matching is case-insensitive.
  Result<TableInfo*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// Drops the table, its storage, and its indexes.
  Status DropTable(const std::string& name);

  /// Builds a B+tree over existing rows. `clustered` asserts the heap is
  /// physically ordered by the key (the caller's responsibility; the cost
  /// model and the actual I/O both depend on it being true).
  Result<IndexInfo*> CreateIndex(const std::string& index_name, const std::string& table_name,
                                 const std::vector<std::string>& column_names,
                                 bool clustered = false);

  Result<IndexInfo*> GetIndex(const std::string& index_name) const;

  /// All table names, sorted.
  std::vector<std::string> TableNames() const;

  /// Fails as InsertTuple(table, tuple) would before its first write: the
  /// row's arity or a value's type does not match the table, its record does
  /// not fit a page, or an index key is longer than the B+tree takes. A
  /// statement checks every row before it writes one, so such a row writes
  /// nothing.
  Status CheckRow(const TableInfo* table, const Tuple& tuple) const;

  /// Inserts a row: heap + every index. Returns the RID.
  Result<Rid> InsertTuple(TableInfo* table, const Tuple& tuple);

  /// Deletes a row from heap + every index.
  Status DeleteTuple(TableInfo* table, Rid rid);

  /// Full-scan ANALYZE: recomputes TableStats (histograms with `num_buckets`
  /// buckets; 0 disables them).
  Status AnalyzeTable(const std::string& table_name, size_t num_buckets = 32);

 private:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }
  /// Marks `index` once `row` gives it a big INT key, retiring cached plans
  /// that rely on its order.
  void NoteKey(IndexInfo* index, const Tuple& row);

  BufferPool* pool_;
  std::map<std::string, std::unique_ptr<TableInfo>> tables_;   // lower-cased keys
  std::map<std::string, std::unique_ptr<IndexInfo>> indexes_;  // lower-cased keys
  std::atomic<uint64_t> version_{1};
};

}  // namespace relopt
