// Shared helpers for relopt tests.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/executor.h"
#include "storage/btree.h"

namespace relopt {
namespace tu {

/// Unwraps a Result in tests with a readable failure.
#define ASSERT_OK(expr)                                    \
  do {                                                     \
    ::relopt::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();               \
  } while (0)

#define EXPECT_OK(expr)                                    \
  do {                                                     \
    ::relopt::Status _st = (expr);                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();               \
  } while (0)

/// Runs SQL on `db`, asserting success; returns the result.
inline QueryResult Sql(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? r.MoveValue() : QueryResult{};
}

/// A finished statement must leave no buffer-pool frame pinned: a leaked pin
/// shrinks the pool for good. `sql` names the statement in the failure.
inline void ExpectNoPinnedFrames(Database* db, const std::string& sql) {
  EXPECT_EQ(db->pool()->NumPinned(), 0u)
      << "frames left pinned by: " << sql << " @ parallelism " << db->parallelism()
      << ", batch " << db->batch_size();
}

/// Sql, Database::Execute and Database::ExecutePlan, each followed by
/// ExpectNoPinnedFrames, so failing statements are checked too.
inline QueryResult CheckedSql(Database* db, const std::string& sql) {
  QueryResult r = Sql(db, sql);
  ExpectNoPinnedFrames(db, sql);
  return r;
}

inline Result<QueryResult> CheckedExecute(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Execute(sql);
  ExpectNoPinnedFrames(db, sql);
  return r;
}

inline Result<QueryResult> CheckedExecutePlan(Database* db, const PhysicalNode& plan,
                                              const std::string& sql) {
  Result<QueryResult> r = db->ExecutePlan(plan);
  ExpectNoPinnedFrames(db, sql);
  return r;
}

/// Every (key, rid) entry of `index`, in key order.
inline std::vector<std::pair<std::string, Rid>> IndexEntries(Database* db,
                                                             const std::string& index) {
  std::vector<std::pair<std::string, Rid>> out;
  Result<IndexInfo*> info = db->catalog()->GetIndex(index);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  if (!info.ok()) return out;
  Result<BTree::Iterator> it =
      BTree::Iterator::Seek((*info)->tree.get(), std::nullopt, true, std::nullopt, true);
  EXPECT_TRUE(it.ok()) << it.status().ToString();
  std::string key;
  Rid rid;
  while (it.ok()) {
    Result<bool> has = it->Next(&key, &rid);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok() || !*has) break;
    out.emplace_back(key, rid);
  }
  return out;
}

/// Inits `exec` and pulls it to the end `batch_size` rows at a time,
/// asserting every call succeeds; returns the rows in stream order.
inline std::vector<Tuple> Drain(Executor* exec, size_t batch_size = TupleBatch::kDefaultCapacity) {
  Status init = exec->Init();
  EXPECT_TRUE(init.ok()) << init.ToString();
  std::vector<Tuple> out;
  if (!init.ok()) return out;
  TupleBatch batch(batch_size);
  while (true) {
    Result<bool> has = exec->NextBatch(&batch);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok()) break;
    for (size_t k = 0; k < batch.NumSelected(); ++k) out.push_back(batch.SelectedRow(k));
    if (!*has) break;
  }
  return out;
}

/// Extracts a column of int64s from a result.
inline std::vector<int64_t> IntColumn(const QueryResult& result, size_t col) {
  std::vector<int64_t> out;
  for (const Tuple& row : result.rows) {
    EXPECT_FALSE(row.At(col).is_null());
    out.push_back(row.At(col).AsInt());
  }
  return out;
}

/// Single int64 cell helper (e.g. for SELECT count(*)).
inline int64_t IntCell(const QueryResult& result) {
  EXPECT_EQ(result.rows.size(), 1u);
  EXPECT_GE(result.rows[0].NumValues(), 1u);
  return result.rows.empty() ? -1 : result.rows[0].At(0).AsInt();
}

/// Loads a small standard test schema:
///   emp(id, name, dept_id, salary)   — 1000 rows
///   dept(id, dname)                  — 20 rows
/// with stats analyzed.
inline void LoadEmpDept(Database* db, int emp_rows = 1000, int dept_rows = 20) {
  Sql(db, "CREATE TABLE emp (id INT, name TEXT, dept_id INT, salary INT)");
  Sql(db, "CREATE TABLE dept (id INT, dname TEXT)");
  std::string insert = "INSERT INTO emp VALUES ";
  for (int i = 0; i < emp_rows; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 'e" + std::to_string(i) + "', " +
              std::to_string(i % dept_rows) + ", " + std::to_string(1000 + (i * 37) % 5000) + ")";
  }
  Sql(db, insert);
  std::string insert_dept = "INSERT INTO dept VALUES ";
  for (int i = 0; i < dept_rows; ++i) {
    if (i > 0) insert_dept += ", ";
    insert_dept += "(" + std::to_string(i) + ", 'd" + std::to_string(i) + "')";
  }
  Sql(db, insert_dept);
  Sql(db, "ANALYZE");
}

}  // namespace tu
}  // namespace relopt
