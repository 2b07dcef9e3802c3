// UPDATE and DELETE run as planned queries: the plan finds the rows (and
// the new versions) through any access path, and the session writes them
// after the plan finishes, in RID order. So the writes may not depend on the
// access path, the batch size or the parallelism; DML binds as SELECT does;
// an index path fetches only the pages it touches; and a DML record carries
// its plan's profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engine/session.h"
#include "storage/heap_file.h"
#include "test_util.h"
#include "types/key_codec.h"
#include "types/tuple_batch.h"

namespace relopt {
namespace {

using tu::Sql;

/// Point, range, OR, IS NULL and BETWEEN predicates; SETs that move an index
/// key, read the old row, assign several columns or assign NULL; and one
/// statement whose SET overflows, writing nothing.
const char* const kDml[] = {
    "DELETE FROM d WHERE k = 777",
    "UPDATE d SET v = v + 1 WHERE k BETWEEN 100 AND 180",
    "DELETE FROM d WHERE k >= 1900",
    "UPDATE d SET k = k + 5000 WHERE k < 60",
    "UPDATE d SET s = NULL WHERE k = 300 OR k = 5010 OR v = 17",
    "DELETE FROM d WHERE s IS NULL",
    "UPDATE d SET s = upper(s), v = v * 2 WHERE k > 400 AND k <= 450",
    "UPDATE d SET k = v, v = k WHERE k >= 500 AND k < 520",
    "DELETE FROM d WHERE k = 123 OR s = 's7'",
    "UPDATE d SET v = NULL WHERE v IS NOT NULL AND k BETWEEN 1000 AND 1010",
    "UPDATE d SET k = k - 1, s = 'moved' WHERE s = 's3'",
    "DELETE FROM d WHERE s > 's8'",
    "UPDATE d SET v = v * 9223372036854775807 WHERE k BETWEEN 1500 AND 1510",
};

struct IndexDef {
  const char* name;
  std::vector<size_t> key_columns;
};
const IndexDef kIndexes[] = {{"d_k", {0}}, {"d_sv", {1, 2}}};

/// `d(k, s, v)`: 2,000 rows, `v` NULL on every 97th, analyzed; with
/// `indexed`, B+trees on `k` and on `(s, v)`.
void LoadTable(Database* db, bool indexed) {
  Sql(db, "CREATE TABLE d (k INT, s TEXT, v INT)");
  std::string insert = "INSERT INTO d VALUES ";
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 's" + std::to_string(i % 50) + "', " +
              (i % 97 == 0 ? std::string("NULL") : std::to_string((i * 37) % 1000)) + ")";
  }
  Sql(db, insert);
  if (indexed) {
    Sql(db, "CREATE INDEX d_k ON d (k)");
    Sql(db, "CREATE INDEX d_sv ON d (s, v)");
  }
  Sql(db, "ANALYZE");
}

/// `d`'s rows in heap order, each with its packed RID as a last value.
std::vector<Tuple> HeapRows(Database* db) {
  std::vector<Tuple> rows;
  Result<TableInfo*> table = db->catalog()->GetTable("d");
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  if (!table.ok()) return rows;
  HeapFile::PageCursor cursor((*table)->heap());
  EXPECT_OK(cursor.Rewind());
  TupleBatch batch;
  bool more = true;
  while (more) {
    batch.Clear();
    Result<bool> next = cursor.NextBatch(3, &batch, /*with_rid=*/true);
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok()) break;
    more = *next;
    for (size_t r = 0; r < batch.NumRows(); ++r) rows.push_back(batch.RowAt(r));
  }
  return rows;
}

/// The entries an index on `key_columns` must hold for `rows` (HeapRows).
std::vector<std::pair<std::string, Rid>> ExpectedEntries(const std::vector<Tuple>& rows,
                                                         const std::vector<size_t>& key_columns) {
  std::vector<std::pair<std::string, Rid>> out;
  for (const Tuple& row : rows) {
    out.emplace_back(EncodeKeyFromTuple(row, key_columns), Rid::Unpack(row.At(3).AsInt()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool UsedIndexScan(const PlanProfile& profile) {
  bool found = false;
  if (!profile.valid) return false;
  ForEachOperator(profile.root, [&](const OperatorProfile& op) {
    if (op.op == "IndexScan") found = true;
  });
  return found;
}

/// What one run of kDml left after each statement.
struct CorpusRun {
  std::vector<std::string> statuses;
  std::vector<std::vector<Tuple>> heaps;
  int index_paths = 0;  ///< statements whose plan read through an index
};

CorpusRun RunCorpus(bool indexed, size_t batch_size, size_t parallelism) {
  Database db;
  LoadTable(&db, indexed);
  db.set_batch_size(batch_size);
  db.set_parallelism(parallelism);
  CorpusRun run;
  for (const char* sql : kDml) {
    Result<QueryResult> r = db.Execute(sql);
    run.statuses.push_back(r.ok() ? "OK" : r.status().ToString());
    tu::ExpectNoPinnedFrames(&db, sql);
    if (UsedIndexScan(db.last_profile())) ++run.index_paths;
    run.heaps.push_back(HeapRows(&db));
    if (indexed) {
      for (const IndexDef& index : kIndexes) {
        EXPECT_EQ(tu::IndexEntries(&db, index.name),
                  ExpectedEntries(run.heaps.back(), index.key_columns))
            << index.name << " after " << sql;
      }
    }
  }
  return run;
}

TEST(DmlDifferentialTest, AccessPathBatchSizeAndParallelismDoNotChangeTheWrites) {
  const CorpusRun reference = RunCorpus(/*indexed=*/false, 1, 1);
  ASSERT_EQ(reference.statuses.size(), std::size(kDml));
  // The corpus changes rows, and its last statement fails.
  EXPECT_NE(reference.heaps.front(), reference.heaps.back());
  EXPECT_EQ(reference.statuses.back().rfind("OutOfRange", 0), 0u) << reference.statuses.back();
  EXPECT_EQ(reference.heaps.back(), reference.heaps[reference.heaps.size() - 2]);
  EXPECT_EQ(reference.index_paths, 0);
  for (bool indexed : {false, true}) {
    for (size_t batch_size : {1, 7, 1024}) {
      for (size_t parallelism : {1, 4}) {
        const std::string mode = std::string(indexed ? "indexed" : "unindexed") + ", batch " +
                                 std::to_string(batch_size) + " @ parallelism " +
                                 std::to_string(parallelism);
        const CorpusRun run = RunCorpus(indexed, batch_size, parallelism);
        if (indexed) {
          EXPECT_GT(run.index_paths, 0) << mode;
        }
        for (size_t i = 0; i < std::size(kDml); ++i) {
          EXPECT_EQ(run.statuses[i], reference.statuses[i]) << kDml[i] << " (" << mode << ")";
          EXPECT_EQ(run.heaps[i], reference.heaps[i]) << kDml[i] << " (" << mode << ")";
        }
      }
    }
  }
}

class DmlPlanTest : public ::testing::Test {
 protected:
  uint64_t LastFetches() const {
    return db_.last_metrics().pool.hits + db_.last_metrics().pool.misses;
  }

  Database db_;
};

// With an index on `k`, a point UPDATE or DELETE fetches the index path down
// to its leaf, the matching row's heap page, and what the write touches, not
// the whole heap.
TEST_F(DmlPlanTest, IndexedPointDmlFetchesOnlyTheTouchedPages) {
  Sql(&db_, "CREATE TABLE w (k INT, s TEXT, v INT)");
  std::string insert = "INSERT INTO w VALUES ";
  for (int i = 0; i < 6000; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 's" + std::to_string(i % 100) + "', " +
              std::to_string((i * 7) % 1000) + ")";
  }
  Sql(&db_, insert);
  Sql(&db_, "CREATE INDEX w_k ON w (k)");
  Sql(&db_, "ANALYZE");
  Result<TableInfo*> table = db_.catalog()->GetTable("w");
  ASSERT_TRUE(table.ok());
  const uint64_t heap_pages = (*table)->heap()->NumPages();
  const uint64_t height = (*db_.catalog()->GetIndex("w_k"))->tree->Height();
  ASSERT_GT(heap_pages, 40u);

  Session* session = db_.default_session();
  Result<PreparedStatement*> del = session->Prepare("DELETE FROM w WHERE k = ?");
  Result<PreparedStatement*> update = session->Prepare("UPDATE w SET v = v + 1 WHERE k = ?");
  ASSERT_TRUE(del.ok() && update.ok());

  ASSERT_TRUE((*del)->Execute({Value::Int(777)}).ok());
  EXPECT_TRUE(UsedIndexScan(db_.last_profile()));
  // The plan fetches the path to the leaf and the row's heap page. The
  // write fetches the heap page to delete the record (which gives the
  // row's keys) and the path to the leaf, which it stores in place.
  const uint64_t point_delete = (height + 1) + (1 + height);
  EXPECT_EQ(LastFetches(), point_delete) << "height " << height;

  ASSERT_TRUE((*update)->Execute({Value::Int(778)}).ok());
  EXPECT_TRUE(UsedIndexScan(db_.last_profile()));
  // As the DELETE, then the insert of the new version: the heap page it
  // goes to, and for its key the path to the leaf, stored in place.
  const uint64_t point_update = point_delete + 1 + height;
  EXPECT_EQ(LastFetches(), point_update) << "height " << height;
  EXPECT_LT(point_update, heap_pages);

  // The rows changed, through the index as through the heap.
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT count(*) FROM w WHERE k = 777")), 0);
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT v FROM w WHERE k = 778")), (778 * 7) % 1000 + 1);
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT count(*) FROM w")), 5999);
}

// A constant SET value is cast to its column's type before the plan runs,
// so a value the column cannot take fails the statement whether or not a
// row matches, having read no page. A value that casts is written cast.
TEST_F(DmlPlanTest, ConstantSetValueIsCastBeforePlanning) {
  Sql(&db_, "CREATE TABLE t (a INT, s TEXT)");
  Sql(&db_, "INSERT INTO t VALUES (1, 'x')");
  for (const char* sql : {"UPDATE t SET a = 'text' WHERE a = 5",
                          "UPDATE t SET a = 'text' WHERE a = 1"}) {
    Result<QueryResult> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << sql << ": " << r.status().ToString();
    EXPECT_EQ(LastFetches(), 0u) << sql;
  }
  Sql(&db_, "UPDATE t SET a = '42' WHERE a = 1");
  EXPECT_EQ(tu::IntCell(Sql(&db_, "SELECT a FROM t WHERE s = 'x'")), 42);
}

// UPDATE and DELETE bind their WHERE and SET with the binder's SELECT rules:
// a non-boolean WHERE and an aggregate anywhere fail before anything runs.
TEST_F(DmlPlanTest, DmlBindsLikeSelect) {
  Sql(&db_, "CREATE TABLE t (a INT, s TEXT)");
  Sql(&db_, "INSERT INTO t VALUES (0, 'x'), (1, 'y'), (2, 'z')");
  for (const char* sql :
       {"DELETE FROM t WHERE a", "UPDATE t SET s = 'q' WHERE a + 1",
        "DELETE FROM t WHERE count(*) > 0", "UPDATE t SET a = count(*)"}) {
    Result<QueryResult> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kBindError) << sql << ": " << r.status().ToString();
    std::vector<std::string> rows;
    for (const Tuple& row : Sql(&db_, "SELECT a, s FROM t").rows) rows.push_back(row.ToString());
    EXPECT_EQ(rows, (std::vector<std::string>{"(0, 'x')", "(1, 'y')", "(2, 'z')"})) << sql;
  }
}

// An UPDATE or DELETE record holds the profile of the plan that found its
// rows, so relopt_operator_stats() lists its scan; an INSERT runs no plan.
TEST_F(DmlPlanTest, DmlRecordsCarryTheirPlan) {
  Sql(&db_, "CREATE TABLE t (a INT, s TEXT)");
  Sql(&db_, "INSERT INTO t VALUES (0, 'x'), (1, 'y'), (2, 'z')");
  EXPECT_FALSE(db_.last_profile().valid);
  for (const char* sql : {"UPDATE t SET s = 'q' WHERE a > 0", "DELETE FROM t WHERE a = 1"}) {
    Sql(&db_, sql);
    ASSERT_TRUE(db_.last_profile().valid) << sql;
    EXPECT_TRUE(db_.last_metrics().executed_plan) << sql;
    int64_t scanned = -1;
    ForEachOperator(db_.last_profile().root, [&](const OperatorProfile& op) {
      if (op.op == "SeqScan") scanned = static_cast<int64_t>(op.stats.rows_produced);
    });
    EXPECT_EQ(scanned, 3) << sql;
  }
  QueryResult log = Sql(&db_,
                        "SELECT id, verb FROM relopt_query_log() "
                        "WHERE verb = 'update' OR verb = 'delete'");
  ASSERT_EQ(log.rows.size(), 2u);
  for (const Tuple& entry : log.rows) {
    QueryResult scans = Sql(&db_,
                            "SELECT actual_rows FROM relopt_operator_stats() "
                            "WHERE op = 'SeqScan' AND query_id = " +
                                std::to_string(entry.At(0).AsInt()));
    EXPECT_EQ(tu::IntCell(scans), 3) << entry.At(1).AsString();
  }
}

}  // namespace
}  // namespace relopt
