// Catalog: table/index lifecycle, insert/delete consistency, ANALYZE.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "types/key_codec.h"
#include "types/tuple_batch.h"

namespace relopt {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : pool_(&disk_, 128), catalog_(&pool_) {}

  Schema UserSchema() {
    Schema s;
    s.AddColumn(Column("id", TypeId::kInt64, "users"));
    s.AddColumn(Column("name", TypeId::kString, "users"));
    s.AddColumn(Column("age", TypeId::kInt64, "users"));
    return s;
  }

  TableInfo* MakeUsers(int rows) {
    TableInfo* t = *catalog_.CreateTable("users", UserSchema());
    for (int i = 0; i < rows; ++i) {
      Tuple tuple({Value::Int(i), Value::String("u" + std::to_string(i)),
                   Value::Int(20 + i % 50)});
      EXPECT_TRUE(catalog_.InsertTuple(t, tuple).ok());
    }
    return t;
  }

  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndGetTable) {
  TableInfo* t = MakeUsers(5);
  EXPECT_EQ(t->name(), "users");
  EXPECT_EQ(t->live_rows(), 5u);
  EXPECT_EQ(*catalog_.GetTable("USERS"), t);  // case-insensitive
  EXPECT_TRUE(catalog_.HasTable("users"));
  EXPECT_FALSE(catalog_.HasTable("nope"));
  EXPECT_EQ(catalog_.GetTable("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, DuplicateTableRejected) {
  MakeUsers(1);
  EXPECT_EQ(catalog_.CreateTable("users", UserSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, InsertValidatesArityAndTypes) {
  TableInfo* t = MakeUsers(0);
  EXPECT_EQ(catalog_.InsertTuple(t, Tuple({Value::Int(1)})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog_
                .InsertTuple(t, Tuple({Value::String("x"), Value::String("y"), Value::Int(1)}))
                .status()
                .code(),
            StatusCode::kTypeError);
  // NULLs pass type checking.
  EXPECT_TRUE(catalog_.InsertTuple(t, Tuple({Value::Int(1), Value::Null(TypeId::kString),
                                             Value::Null(TypeId::kInt64)}))
                  .ok());
}

TEST_F(CatalogTest, GetTupleRoundTrip) {
  TableInfo* t = MakeUsers(0);
  Tuple tuple({Value::Int(7), Value::String("seven"), Value::Int(70)});
  Rid rid = *catalog_.InsertTuple(t, tuple);
  HeapFile::PageCursor cursor(t->heap());
  TupleBatch back;
  ASSERT_TRUE(cursor
                  .ReadBatch({&rid, 1}, t->schema().NumColumns(),
                             AllColumns(t->schema().NumColumns()), &back)
                  .ok());
  ASSERT_EQ(back.NumRows(), 1u);
  EXPECT_EQ(back.RowAt(0), tuple);
}

TEST_F(CatalogTest, CreateIndexBuildsFromExistingRows) {
  TableInfo* t = MakeUsers(100);
  IndexInfo* idx = *catalog_.CreateIndex("idx_users_age", "users", {"age"}, false);
  EXPECT_EQ(idx->table_name, "users");
  EXPECT_EQ(t->indexes().size(), 1u);
  EXPECT_EQ(*idx->tree->NumEntries(), 100u);

  // Every row is findable through the index.
  std::vector<Rid> rids = *idx->tree->SearchEqual(EncodeKey({Value::Int(25)}));
  EXPECT_EQ(rids.size(), 2u);  // ages cycle mod 50 over 100 rows
  HeapFile::PageCursor cursor(t->heap());
  TupleBatch rows;
  ASSERT_TRUE(
      cursor.ReadBatch(rids, t->schema().NumColumns(), AllColumns(t->schema().NumColumns()), &rows)
          .ok());
  ASSERT_EQ(rows.NumRows(), rids.size());
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    EXPECT_EQ(rows.RowAt(r).At(2).AsInt(), 25);
  }
}

TEST_F(CatalogTest, IndexMaintainedOnInsertAndDelete) {
  TableInfo* t = MakeUsers(10);
  IndexInfo* idx = *catalog_.CreateIndex("idx_id", "users", {"id"}, false);

  Rid rid = *catalog_.InsertTuple(
      t, Tuple({Value::Int(999), Value::String("new"), Value::Int(30)}));
  EXPECT_EQ(idx->tree->SearchEqual(EncodeKey({Value::Int(999)}))->size(), 1u);

  ASSERT_TRUE(catalog_.DeleteTuple(t, rid).ok());
  EXPECT_TRUE(idx->tree->SearchEqual(EncodeKey({Value::Int(999)}))->empty());
  EXPECT_EQ(t->live_rows(), 10u);
}

TEST_F(CatalogTest, CompositeIndex) {
  TableInfo* t = MakeUsers(50);
  (void)t;
  IndexInfo* idx = *catalog_.CreateIndex("idx_age_name", "users", {"age", "name"}, false);
  EXPECT_EQ(idx->key_columns, (std::vector<size_t>{2, 1}));
  EXPECT_EQ(*idx->tree->NumEntries(), 50u);
}

TEST_F(CatalogTest, IndexErrors) {
  MakeUsers(1);
  EXPECT_EQ(catalog_.CreateIndex("i1", "nope", {"id"}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog_.CreateIndex("i1", "users", {"bogus"}).status().code(),
            StatusCode::kBindError);
  ASSERT_TRUE(catalog_.CreateIndex("i1", "users", {"id"}).ok());
  EXPECT_EQ(catalog_.CreateIndex("i1", "users", {"age"}).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.CreateIndex("i2", "users", {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogTest, DropTableRemovesIndexesAndStorage) {
  MakeUsers(10);
  ASSERT_TRUE(catalog_.CreateIndex("idx_drop", "users", {"id"}).ok());
  ASSERT_TRUE(catalog_.DropTable("users").ok());
  EXPECT_FALSE(catalog_.HasTable("users"));
  EXPECT_EQ(catalog_.GetIndex("idx_drop").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog_.DropTable("users").code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, AnalyzeComputesStats) {
  TableInfo* t = MakeUsers(200);
  EXPECT_FALSE(t->has_stats());
  ASSERT_TRUE(catalog_.AnalyzeTable("users", 16).ok());
  ASSERT_TRUE(t->has_stats());
  const TableStats& stats = t->stats();
  EXPECT_EQ(stats.num_rows, 200u);
  EXPECT_GT(stats.num_pages, 0u);
  ASSERT_EQ(stats.columns.size(), 3u);
  EXPECT_EQ(stats.columns[0].ndv, 200u);  // serial ids
  EXPECT_EQ(stats.columns[2].ndv, 50u);   // ages cycle mod 50
  EXPECT_TRUE(stats.columns[0].min->Equals(Value::Int(0)));
  EXPECT_TRUE(stats.columns[0].max->Equals(Value::Int(199)));
  EXPECT_FALSE(stats.columns[2].histogram.Empty());
}

TEST_F(CatalogTest, AnalyzeCountsNulls) {
  TableInfo* t = MakeUsers(0);
  for (int i = 0; i < 10; ++i) {
    Value name = (i % 2 == 0) ? Value::Null(TypeId::kString) : Value::String("x");
    ASSERT_TRUE(catalog_.InsertTuple(t, Tuple({Value::Int(i), name, Value::Int(1)})).ok());
  }
  ASSERT_TRUE(catalog_.AnalyzeTable("users").ok());
  EXPECT_EQ(t->stats().columns[1].num_null, 5u);
  EXPECT_DOUBLE_EQ(t->stats().columns[1].null_fraction(), 0.5);
}

TEST_F(CatalogTest, AnalyzeWithZeroBucketsSkipsHistograms) {
  TableInfo* t = MakeUsers(50);
  ASSERT_TRUE(catalog_.AnalyzeTable("users", 0).ok());
  EXPECT_TRUE(t->stats().columns[0].histogram.Empty());
  EXPECT_EQ(t->stats().columns[0].ndv, 50u);  // ndv/min/max still present
}

TEST_F(CatalogTest, TableNamesSorted) {
  catalog_.CreateTable("zebra", UserSchema()).status();
  catalog_.CreateTable("alpha", UserSchema()).status();
  std::vector<std::string> names = catalog_.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zebra");
}

}  // namespace
}  // namespace relopt
