// Join-method matrix: forces one join method at a time over an indexed copy
// of the differential fixture, then drives every join plan of the corpus at
// batch sizes 1/7/1024 and parallelism 1/4. Index scans, index nested loops,
// merge joins and Grace hash joins run here, which the other differential
// suites (no indexes, default plans) never reach. Every run must return the
// bag of the unforced plan at batch 1, show the forced operator in its
// profile, evaluate no row through a FallbackNode and leave no frame pinned;
// a plan's per-operator row counts and cold-cache page reads must not depend
// on the batch size.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "differential_queries.h"
#include "exec/plan_profile.h"
#include "test_util.h"

namespace relopt {
namespace {

/// A pool this small leaves the hash join 2 pages of operator memory, less
/// than the fixture's emp table, so a hash join building on emp spills
/// (Grace).
constexpr size_t kGracePoolPages = 10;

/// The differential corpus plus the aggregate subset, whose emp self join
/// builds on all of emp.
std::vector<std::string> MatrixQueries() {
  std::vector<std::string> out(std::begin(tu::kDifferentialQueries),
                               std::end(tu::kDifferentialQueries));
  out.insert(out.end(), std::begin(tu::kAggregateQueries), std::end(tu::kAggregateQueries));
  return out;
}

struct MethodCase {
  const char* name;  ///< test-name suffix
  const char* op;    ///< profile operator the forced plans must contain
  bool nlj, bnlj, inlj, smj, hash;
  size_t pool_pages;
};

/// gtest prints the parameter into the CTest name; print the method name,
/// not the struct's bytes (which include string-literal addresses).
void PrintTo(const MethodCase& mc, std::ostream* os) { *os << mc.name; }

const MethodCase kCases[] = {
    {"NestedLoop", "NestedLoopJoin", true, false, false, false, false, 256},
    {"BlockNestedLoop", "BlockNestedLoopJoin", false, true, false, false, false, 256},
    {"IndexNestedLoop", "IndexNestedLoopJoin", false, false, true, false, false, 256},
    {"SortMerge", "SortMergeJoin", false, false, false, true, false, 256},
    {"Hash", "HashJoin", false, false, false, false, true, 256},
    {"GraceHash", "HashJoin", false, false, false, false, true, kGracePoolPages},
};

std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool IsJoin(PhysicalNodeKind kind) {
  return kind == PhysicalNodeKind::kNestedLoopJoin ||
         kind == PhysicalNodeKind::kBlockNestedLoopJoin ||
         kind == PhysicalNodeKind::kIndexNestedLoopJoin ||
         kind == PhysicalNodeKind::kSortMergeJoin || kind == PhysicalNodeKind::kHashJoin;
}

bool ContainsJoin(const PhysicalNode& node) {
  if (IsJoin(node.kind())) return true;
  for (const PhysicalPtr& c : node.children()) {
    if (ContainsJoin(*c)) return true;
  }
  return false;
}

/// Pre-order (op, rows_produced) of a profile, and the tree's fallback rows
/// and Grace spill writes.
struct ProfileSummary {
  std::vector<std::pair<std::string, uint64_t>> rows;
  uint64_t fallback_rows = 0;
  uint64_t hash_join_writes = 0;
  bool has_op = false;
};

void Summarize(const OperatorProfile& p, const std::string& op, ProfileSummary* out) {
  out->rows.emplace_back(p.op, p.stats.rows_produced);
  out->fallback_rows += p.stats.fallback_rows;
  if (p.op == "HashJoin") out->hash_join_writes += p.stats.page_writes;
  if (p.op == op) out->has_op = true;
  for (const OperatorProfile& c : p.children) Summarize(c, op, out);
}

class JoinMethodMatrixTest : public ::testing::TestWithParam<MethodCase> {};

TEST_P(JoinMethodMatrixTest, EveryBatchSizeAndParallelismAgrees) {
  const MethodCase& mc = GetParam();
  SessionOptions options;
  options.buffer_pool_pages = mc.pool_pages;
  Database db(options);
  tu::LoadDifferentialFixture(&db, /*with_indexes=*/true);

  // Reference bags: the unforced plans at batch 1, serial. Queries that
  // fail (the aggregate subset's SUM overflow) have no bag to compare.
  db.set_batch_size(1);
  std::map<std::string, std::vector<std::string>> expected;
  for (const std::string& q : MatrixQueries()) {
    Result<QueryResult> r = tu::CheckedExecute(&db, q);
    if (r.ok()) expected[q] = Canon(*r);
  }

  JoinEnumOptions& join = db.options().optimizer.join;
  join.enable_nlj = mc.nlj;
  join.enable_bnlj = mc.bnlj;
  join.enable_inlj = mc.inlj;
  join.enable_smj = mc.smj;
  join.enable_hash = mc.hash;

  size_t joins_run = 0;
  uint64_t spill_writes = 0;
  for (const auto& [q, bag] : expected) {
    Result<PhysicalPtr> planned = db.PlanQuery(q);
    // The forced method may be unable to join some relations (no index on
    // the key, a non-equi predicate): such queries have no plan to drive.
    if (!planned.ok() || !ContainsJoin(**planned)) continue;
    const PhysicalPtr plan = planned.MoveValue();
    ++joins_run;
    for (size_t parallelism : {1, 4}) {
      db.set_parallelism(parallelism);
      ProfileSummary batch_one;
      uint64_t batch_one_reads = 0;
      for (size_t batch_size : {1, 7, 1024}) {
        const std::string mode = q + " @ " + mc.name + ", parallelism " +
                                 std::to_string(parallelism) + ", batch " +
                                 std::to_string(batch_size);
        db.set_batch_size(batch_size);
        ASSERT_OK(db.pool()->FlushAll());
        ASSERT_OK(db.pool()->EvictAll());
        Result<QueryResult> got = tu::CheckedExecutePlan(&db, *plan, mode);
        ASSERT_TRUE(got.ok()) << mode << ": " << got.status().ToString();
        EXPECT_EQ(Canon(*got), bag) << mode;

        ASSERT_TRUE(db.last_profile().valid) << mode;
        ProfileSummary summary;
        Summarize(db.last_profile().root, mc.op, &summary);
        EXPECT_TRUE(summary.has_op) << mode << "\n" << db.last_profile().ToText();
        EXPECT_EQ(summary.fallback_rows, 0u) << mode;
        spill_writes += summary.hash_join_writes;
        const uint64_t reads = db.last_metrics().io.page_reads;
        if (batch_size == 1) {
          batch_one = summary;
          batch_one_reads = reads;
          continue;
        }
        EXPECT_EQ(summary.rows, batch_one.rows) << mode;
        EXPECT_EQ(reads, batch_one_reads) << mode;
      }
    }
    db.set_parallelism(1);
  }
  // Every method joins the emp/dept and jw_* queries.
  EXPECT_GE(joins_run, 8u) << mc.name;
  if (mc.pool_pages == kGracePoolPages) {
    EXPECT_GT(spill_writes, 0u) << "no hash join spilled to Grace partitions";
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, JoinMethodMatrixTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<MethodCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace relopt
