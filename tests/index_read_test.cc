// Index reads: a bound on a prefix of an index key covers every longer key
// with that prefix, and an index path fetches the pages the cost model
// charges: the B+tree path, the leaves in range and each heap page once.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"
#include "types/key_codec.h"

namespace relopt {
namespace {

using tu::Sql;

bool HasOp(const OperatorProfile& p, const std::string& op) {
  if (p.op == op) return true;
  for (const OperatorProfile& c : p.children) {
    if (HasOp(c, op)) return true;
  }
  return false;
}

/// The pool fetches of the last statement's first `op` operator.
uint64_t OperatorFetches(const Database& db, const std::string& op) {
  uint64_t fetches = 0;
  bool found = false;
  ForEachOperator(db.last_profile().root, [&](const OperatorProfile& p) {
    if (found || p.op != op) return;
    found = true;
    fetches = p.stats.pool_hits + p.stats.pool_misses;
  });
  EXPECT_TRUE(found) << op << " not in\n" << db.last_profile().ToText();
  return fetches;
}

std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// `t2` is indexed on (a, b) and `t3` on (a, b, c); both hold 4,000 rows
// (i % 100, i % 7, i). Each comparison, on the leading column and on the
// second after an equality on the first, must take the index and return
// what a sequential scan returns. An exclusive lower bound on a prefix once
// skipped only keys equal to the prefix, so `a > 98` also returned a = 98.
TEST(IndexRangeTest, PrefixBoundsMatchSeqScan) {
  Database db;
  std::string values;
  for (int i = 0; i < 4000; ++i) {
    values += (i == 0 ? "(" : ", (") + std::to_string(i % 100) + ", " + std::to_string(i % 7) +
              ", " + std::to_string(i) + ")";
  }
  for (const char* table : {"t2", "t3"}) {
    Sql(&db, std::string("CREATE TABLE ") + table + " (a INT, b INT, c INT)");
    Sql(&db, std::string("INSERT INTO ") + table + " VALUES " + values);
  }
  Sql(&db, "CREATE INDEX t2_ab ON t2 (a, b)");
  Sql(&db, "CREATE INDEX t3_abc ON t3 (a, b, c)");
  Sql(&db, "ANALYZE");

  const std::vector<std::string> predicates = {
      "a = 98",           "a < 1",           "a <= 1",          "a > 98",
      "a >= 98",          "a = 98 AND b = 3", "a = 98 AND b < 3", "a = 98 AND b <= 3",
      "a = 98 AND b > 3", "a = 98 AND b >= 3"};
  bool& index_scans = db.options().optimizer.join.enable_index_scans;
  for (const char* table : {"t2", "t3"}) {
    for (const std::string& predicate : predicates) {
      const std::string sql =
          std::string("SELECT a, b, c FROM ") + table + " WHERE " + predicate;
      index_scans = true;
      const std::vector<std::string> indexed = SortedRows(tu::CheckedSql(&db, sql));
      EXPECT_TRUE(HasOp(db.last_profile().root, "IndexScan")) << sql;
      index_scans = false;
      const std::vector<std::string> scanned = SortedRows(tu::CheckedSql(&db, sql));
      EXPECT_FALSE(HasOp(db.last_profile().root, "IndexScan")) << sql;
      EXPECT_FALSE(scanned.empty()) << sql;
      EXPECT_EQ(indexed, scanned) << sql;
    }
  }
}

// On `d(k, s, v)`, loaded in key order with an index on `k`, a 100-row range
// scan fetches the B+tree path, the leaves in range and each heap page once,
// and an index nested-loop probe matching one row fetches the path and the
// row's page.
TEST(IndexIoTest, IndexPathsFetchTheirPathLeavesAndHeapPages) {
  Database db;
  Sql(&db, "CREATE TABLE d (k INT, s TEXT, v INT)");
  std::string insert = "INSERT INTO d VALUES ";
  for (int i = 0; i < 6000; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 's" + std::to_string(i % 100) + "', " +
              std::to_string((i * 7) % 1000) + ")";
  }
  Sql(&db, insert);
  Sql(&db, "CREATE TABLE o (k INT)");
  Sql(&db, "INSERT INTO o VALUES (4321)");
  Sql(&db, "CREATE INDEX d_k ON d (k)");
  Sql(&db, "ANALYZE");
  BTree* tree = (*db.catalog()->GetIndex("d_k"))->tree.get();
  const uint64_t height = static_cast<uint64_t>(tree->Height());
  ASSERT_EQ(height, 2u);

  // What the range reads: the B+tree's own fetches over it, and the heap
  // pages its RIDs name.
  const std::string lo = EncodeKey({Value::Int(5900)});
  std::set<PageNo> heap_pages;
  for (const auto& [key, rid] : tu::IndexEntries(&db, "d_k")) {
    if (key >= lo) heap_pages.insert(rid.page_no);
  }
  const uint64_t fetches_before = db.pool()->stats().hits + db.pool()->stats().misses;
  Result<BTree::Iterator> it = BTree::Iterator::Seek(tree, lo, true, std::nullopt, true);
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  std::string key;
  Rid rid;
  size_t entries = 0;
  while (*it->Next(&key, &rid)) ++entries;
  ASSERT_EQ(entries, 100u);
  const uint64_t tree_fetches =
      db.pool()->stats().hits + db.pool()->stats().misses - fetches_before;
  EXPECT_EQ(tree_fetches, height) << "the range lies in one leaf";

  QueryResult range = tu::CheckedSql(&db, "SELECT k, s, v FROM d WHERE k >= 5900");
  ASSERT_EQ(range.rows.size(), 100u);
  EXPECT_EQ(OperatorFetches(db, "IndexScan"), tree_fetches + heap_pages.size())
      << db.last_profile().ToText();
  EXPECT_EQ(OperatorFetches(db, "IndexScan"), 3u);

  JoinEnumOptions& join = db.options().optimizer.join;
  join.enable_nlj = join.enable_bnlj = join.enable_smj = join.enable_hash = false;
  QueryResult joined = tu::CheckedSql(&db, "SELECT d.v FROM o, d WHERE o.k = d.k");
  ASSERT_EQ(joined.rows.size(), 1u);
  EXPECT_EQ(joined.rows[0].At(0).AsInt(), (4321 * 7) % 1000);
  EXPECT_EQ(OperatorFetches(db, "IndexNestedLoopJoin"), height + 1)
      << db.last_profile().ToText();
}

}  // namespace
}  // namespace relopt
