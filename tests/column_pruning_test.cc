// Column pruning: every scan decodes, and every join emits, only the columns
// the plan reads. The plan-width tests walk planned trees and check each
// scan's and join's schema against what is read above it; the run tests
// drive pruned plans (zero-width rows included) and pruned DML at batch
// 1/7/1024 and parallelism 1/4 against the naive planner, which builds
// full-width scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "adhoc_shapes.h"
#include "differential_queries.h"
#include "expr/binder.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "test_util.h"
#include "util/str_util.h"

namespace relopt {
namespace {

using Names = std::set<std::string>;

std::string Name(const std::string& table, const std::string& name) {
  return ToLower(table) + "." + ToLower(name);
}

Names SchemaNames(const Schema& schema) {
  Names out;
  for (const Column& c : schema.columns()) out.insert(Name(c.table, c.name));
  return out;
}

void AddReads(const Expression* expr, Names* out) {
  if (expr == nullptr) return;
  std::vector<const ColumnRefExpr*> refs;
  expr->CollectColumnRefs(&refs);
  for (const ColumnRefExpr* ref : refs) out->insert(Name(ref->table(), ref->name()));
}

void AddKeys(const Schema& schema, const std::vector<size_t>& keys, Names* out) {
  for (size_t k : keys) out->insert(Name(schema.ColumnAt(k).table, schema.ColumnAt(k).name));
}

bool IsJoin(PhysicalNodeKind kind) {
  return kind == PhysicalNodeKind::kNestedLoopJoin ||
         kind == PhysicalNodeKind::kBlockNestedLoopJoin ||
         kind == PhysicalNodeKind::kIndexNestedLoopJoin ||
         kind == PhysicalNodeKind::kSortMergeJoin || kind == PhysicalNodeKind::kHashJoin;
}

/// The columns a node's own predicate reads from the rows it emits.
Names OwnReads(const PhysicalNode& node) {
  Names out;
  switch (node.kind()) {
    case PhysicalNodeKind::kFilter:
      AddReads(static_cast<const PhysFilter&>(node).predicate(), &out);
      break;
    case PhysicalNodeKind::kIndexScan:
      AddReads(static_cast<const PhysIndexScan&>(node).residual.get(), &out);
      break;
    case PhysicalNodeKind::kNestedLoopJoin:
      AddReads(static_cast<const PhysNestedLoopJoin&>(node).predicate(), &out);
      break;
    case PhysicalNodeKind::kBlockNestedLoopJoin:
      AddReads(static_cast<const PhysBlockNestedLoopJoin&>(node).predicate(), &out);
      break;
    case PhysicalNodeKind::kIndexNestedLoopJoin:
      AddReads(static_cast<const PhysIndexNestedLoopJoin&>(node).residual(), &out);
      break;
    case PhysicalNodeKind::kSortMergeJoin:
      AddReads(static_cast<const PhysSortMergeJoin&>(node).residual(), &out);
      break;
    case PhysicalNodeKind::kHashJoin:
      AddReads(static_cast<const PhysHashJoin&>(node).residual(), &out);
      break;
    default:
      break;
  }
  return out;
}

/// Checks that every scan and join under `node` emits only columns read
/// above it (`above`) or by its own predicate, and that an INLJ decodes
/// only those and the index key columns it re-checks. Appends a line per
/// violation to `errors`.
void CheckWidths(Database* db, const PhysicalNode& node, const Names& above,
                 std::vector<std::string>* errors) {
  const Names own = OwnReads(node);
  Names allowed = above;
  allowed.insert(own.begin(), own.end());
  auto check = [&](const Schema& schema, const Names& ok, const std::string& what) {
    for (const std::string& col : SchemaNames(schema)) {
      if (ok.count(col) == 0) errors->push_back(what + " carries unread column " + col);
    }
  };
  Names below = allowed;  // what the children must provide
  switch (node.kind()) {
    case PhysicalNodeKind::kProject:
      below.clear();
      for (const ExprPtr& e : static_cast<const PhysProject&>(node).exprs()) {
        AddReads(e.get(), &below);
      }
      break;
    case PhysicalNodeKind::kAggregate: {
      const auto& agg = static_cast<const PhysAggregate&>(node);
      below.clear();
      for (const ExprPtr& g : agg.group_by()) AddReads(g.get(), &below);
      for (const PhysAggregate::Agg& a : agg.aggs()) AddReads(a.arg.get(), &below);
      break;
    }
    case PhysicalNodeKind::kSort:
      for (const PhysSort::Key& k : static_cast<const PhysSort&>(node).keys()) {
        AddReads(k.expr.get(), &below);
      }
      break;
    case PhysicalNodeKind::kSeqScan:
    case PhysicalNodeKind::kIndexScan:
      check(node.schema(), allowed, node.Describe());
      break;
    case PhysicalNodeKind::kHashJoin: {
      const auto& hj = static_cast<const PhysHashJoin&>(node);
      check(node.schema(), allowed, node.Describe());
      AddKeys(node.child(0)->schema(), hj.build_keys(), &below);
      AddKeys(node.child(1)->schema(), hj.probe_keys(), &below);
      break;
    }
    case PhysicalNodeKind::kSortMergeJoin: {
      const auto& smj = static_cast<const PhysSortMergeJoin&>(node);
      check(node.schema(), allowed, node.Describe());
      AddKeys(node.child(0)->schema(), smj.left_keys(), &below);
      AddKeys(node.child(1)->schema(), smj.right_keys(), &below);
      break;
    }
    case PhysicalNodeKind::kIndexNestedLoopJoin: {
      const auto& inlj = static_cast<const PhysIndexNestedLoopJoin&>(node);
      check(node.schema(), allowed, node.Describe());
      for (const ExprPtr& k : inlj.outer_key_exprs()) AddReads(k.get(), &below);
      Result<IndexInfo*> index = db->catalog()->GetIndex(inlj.index_name());
      Result<TableInfo*> table = db->catalog()->GetTable(inlj.inner_table());
      if (!index.ok() || !table.ok()) {
        errors->push_back("unknown INLJ index or table: " + node.Describe());
        break;
      }
      Names inner_ok = allowed;
      for (size_t k = 0; k < inlj.outer_key_exprs().size(); ++k) {
        inner_ok.insert(
            Name(inlj.inner_alias(), (*table)->schema().ColumnAt((*index)->key_columns[k]).name));
      }
      check(inlj.inner_schema(), inner_ok, node.Describe() + " (inner)");
      break;
    }
    case PhysicalNodeKind::kNestedLoopJoin:
    case PhysicalNodeKind::kBlockNestedLoopJoin:
      check(node.schema(), allowed, node.Describe());
      break;
    default:
      break;
  }
  for (const PhysicalPtr& child : node.children()) CheckWidths(db, *child, below, errors);
}

/// The first join of `node`'s tree, pre-order; null if there is none.
const PhysicalNode* TopJoin(const PhysicalNode& node) {
  if (IsJoin(node.kind())) return &node;
  for (const PhysicalPtr& child : node.children()) {
    if (const PhysicalNode* join = TopJoin(*child)) return join;
  }
  return nullptr;
}

/// Every node of `node`'s tree of `kind`, pre-order.
void Collect(const PhysicalNode& node, PhysicalNodeKind kind,
             std::vector<const PhysicalNode*>* out) {
  if (node.kind() == kind) out->push_back(&node);
  for (const PhysicalPtr& child : node.children()) Collect(*child, kind, out);
}

std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ColumnPruningTest : public ::testing::Test {
 protected:
  ColumnPruningTest() { tu::LoadDifferentialFixture(&db_, /*with_indexes=*/true); }

  PhysicalPtr Plan(const std::string& sql) {
    Result<PhysicalPtr> plan = db_.PlanQuery(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    return plan.ok() ? plan.MoveValue() : nullptr;
  }

  /// Plans `sql` and checks every scan's and join's width.
  PhysicalPtr PlanAndCheckWidths(const std::string& sql) {
    PhysicalPtr plan = Plan(sql);
    if (plan == nullptr) return plan;
    std::vector<std::string> errors;
    CheckWidths(&db_, *plan, SchemaNames(plan->schema()), &errors);
    for (const std::string& e : errors) ADD_FAILURE() << sql << ": " << e << "\n" << plan->ToString();
    return plan;
  }

  /// Runs `sql` at batch 1/7/1024 and parallelism 1/4; every run must return
  /// the naive planner's bag.
  void ExpectNaiveResults(const std::string& sql) {
    db_.options().optimizer.naive = true;
    db_.set_parallelism(1);
    Result<QueryResult> naive = tu::CheckedExecute(&db_, sql);
    db_.options().optimizer.naive = false;
    ASSERT_TRUE(naive.ok()) << sql << ": " << naive.status().ToString();
    for (size_t parallelism : {1, 4}) {
      db_.set_parallelism(parallelism);
      for (size_t batch : {1, 7, 1024}) {
        db_.set_batch_size(batch);
        Result<QueryResult> got = tu::CheckedExecute(&db_, sql);
        ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
        EXPECT_EQ(Canon(*got), Canon(*naive))
            << sql << " @ parallelism " << parallelism << ", batch " << batch;
      }
    }
    db_.set_parallelism(1);
    db_.set_batch_size(TupleBatch::kDefaultCapacity);
  }

  void EnableOnly(bool hash, bool inlj) {
    JoinEnumOptions& join = db_.options().optimizer.join;
    join.enable_nlj = false;
    join.enable_bnlj = false;
    join.enable_smj = false;
    join.enable_hash = hash;
    join.enable_inlj = inlj;
  }

  Database db_;
};

TEST_F(ColumnPruningTest, ScansAndJoinsCarryOnlyWhatIsRead) {
  for (const char* q : tu::kDifferentialQueries) PlanAndCheckWidths(q);
  for (const char* q : tu::kAggregateQueries) PlanAndCheckWidths(q);
  // Every join method, so each one's own predicate and keys are checked.
  const char* const joins[] = {
      "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.id AND e.salary > 2000",
      "SELECT e.name FROM emp e, dept d WHERE e.dept_id = d.id AND e.salary < d.id * 500",
      "SELECT d.dname, count(*) FROM emp e, dept d WHERE e.dept_id = d.id GROUP BY d.dname",
      "SELECT e.id FROM emp e, dept d WHERE e.dept_id = d.id ORDER BY e.salary",
  };
  for (bool nlj : {true, false}) {
    JoinEnumOptions& join = db_.options().optimizer.join;
    join.enable_nlj = nlj;
    join.enable_bnlj = !nlj;
    join.enable_inlj = !nlj;
    join.enable_smj = !nlj;
    join.enable_hash = false;
    for (const char* q : joins) PlanAndCheckWidths(q);
  }
}

TEST_F(ColumnPruningTest, AdhocTopJoinEmitsItsFirstValAndItsPredicate) {
  Database db;
  const std::vector<std::string> shapes = tu::LoadAdhocShapes(&db);
  for (const std::string& shape : shapes) {
    const std::string sql = shape + "400";
    // The shape's first relation is the one summed: "sum(<first>.val)".
    const size_t begin = shape.find("sum(") + 4;
    const std::string first = shape.substr(begin, shape.find(".val)") - begin);
    Result<PhysicalPtr> plan = db.PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    std::vector<std::string> errors;
    CheckWidths(&db, **plan, SchemaNames((*plan)->schema()), &errors);
    for (const std::string& e : errors) ADD_FAILURE() << sql << ": " << e;

    const PhysicalNode* top = TopJoin(**plan);
    ASSERT_NE(top, nullptr) << sql;
    Names expected = OwnReads(*top);
    expected.insert(Name(first, "val"));
    EXPECT_EQ(SchemaNames(top->schema()), expected) << sql << "\n" << (*plan)->ToString();
  }
}

TEST_F(ColumnPruningTest, CountStarScanDecodesNothing) {
  const std::string sql = "SELECT count(*) FROM emp";
  PhysicalPtr plan = PlanAndCheckWidths(sql);
  ASSERT_NE(plan, nullptr);
  std::vector<const PhysicalNode*> scans;
  Collect(*plan, PhysicalNodeKind::kSeqScan, &scans);
  ASSERT_EQ(scans.size(), 1u) << plan->ToString();
  EXPECT_EQ(scans[0]->schema().NumColumns(), 0u);
  ExpectNaiveResults(sql);
  ExpectNaiveResults("SELECT count(*) FROM emp WHERE salary > 3000");
}

TEST_F(ColumnPruningTest, JoinNobodyReadsEmitsEmptyRows) {
  EnableOnly(/*hash=*/true, /*inlj=*/false);
  const std::string sql = "SELECT count(*) FROM emp, dept WHERE emp.dept_id = dept.id";
  PhysicalPtr plan = PlanAndCheckWidths(sql);
  ASSERT_NE(plan, nullptr);
  const PhysicalNode* join = TopJoin(*plan);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->kind(), PhysicalNodeKind::kHashJoin);
  EXPECT_EQ(join->schema().NumColumns(), 0u) << plan->ToString();
  ExpectNaiveResults(sql);
}

TEST_F(ColumnPruningTest, StarDimensionsContributeNoColumn) {
  EnableOnly(/*hash=*/true, /*inlj=*/false);
  const std::string sql =
      "SELECT count(*), sum(jw_s_fact.val) FROM jw_s_fact, jw_s_dim0, jw_s_dim1, jw_s_dim2 "
      "WHERE jw_s_fact.d0 = jw_s_dim0.id AND jw_s_fact.d1 = jw_s_dim1.id AND "
      "jw_s_fact.d2 = jw_s_dim2.id";
  PhysicalPtr plan = PlanAndCheckWidths(sql);
  ASSERT_NE(plan, nullptr);
  // Each dimension is read for its join key alone, and no join emits one.
  std::vector<const PhysicalNode*> scans;
  Collect(*plan, PhysicalNodeKind::kSeqScan, &scans);
  for (const PhysicalNode* scan : scans) {
    const std::string& table = static_cast<const PhysSeqScan*>(scan)->table_name();
    if (table == "jw_s_fact") continue;
    EXPECT_EQ(SchemaNames(scan->schema()), Names{table + ".id"}) << plan->ToString();
  }
  EXPECT_EQ(SchemaNames(TopJoin(*plan)->schema()), Names{"jw_s_fact.val"}) << plan->ToString();
  ExpectNaiveResults(sql);
  ExpectNaiveResults(tu::kJwStarQuery);
}

TEST_F(ColumnPruningTest, IndexNestedLoopInnerContributesNothing) {
  EnableOnly(/*hash=*/false, /*inlj=*/true);
  // Only jw_c1.id is indexed, so jw_c1 is the inner.
  const std::string sql =
      "SELECT jw_c0.val FROM jw_c0, jw_c1 WHERE jw_c0.fk = jw_c1.id AND jw_c0.val < 800";
  PhysicalPtr plan = PlanAndCheckWidths(sql);
  ASSERT_NE(plan, nullptr);
  const PhysicalNode* join = TopJoin(*plan);
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->kind(), PhysicalNodeKind::kIndexNestedLoopJoin) << plan->ToString();
  const auto& inlj = static_cast<const PhysIndexNestedLoopJoin&>(*join);
  ASSERT_EQ(inlj.inner_alias(), "jw_c1") << plan->ToString();
  // The inner row is decoded for the key it re-checks, and emits nothing.
  EXPECT_EQ(SchemaNames(inlj.inner_schema()), Names{"jw_c1.id"});
  EXPECT_EQ(SchemaNames(inlj.schema()), Names{"jw_c0.val"});
  ExpectNaiveResults(sql);
}

/// The plan a DML statement's read runs: SELECT #rid FROM big WHERE `where`.
PhysicalPtr PlanDeleteRead(Database* db, const std::string& where) {
  Result<StatementPtr> stmt = ParseStatement("SELECT k FROM big WHERE " + where);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  auto* select = static_cast<SelectStmt*>(stmt->get());
  select->from[0].with_rid = true;
  select->items[0].expr = MakeColumnRef("", "#rid");
  Binder binder(db->catalog());
  Result<LogicalPtr> logical = binder.BindSelect(select);
  EXPECT_TRUE(logical.ok()) << logical.status().ToString();
  if (!logical.ok()) return nullptr;
  Optimizer optimizer(db->catalog(), db->options().optimizer);
  Result<PhysicalPtr> plan = optimizer.Optimize(logical.MoveValue());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? plan.MoveValue() : nullptr;
}

TEST_F(ColumnPruningTest, DeleteDecodesOnlyItsPredicateAndRid) {
  Database db;
  tu::Sql(&db, "CREATE TABLE big (k INT, s TEXT, v INT)");
  std::string insert = "INSERT INTO big VALUES ";
  for (int i = 0; i < 4000; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 'row" + std::to_string(i) + "', " +
              std::to_string(i % 100) + ")";
  }
  tu::Sql(&db, insert);
  tu::Sql(&db, "CREATE INDEX big_k ON big (k)");
  tu::Sql(&db, "ANALYZE");
  // A sequential scan decodes the predicate's column and adds #rid.
  PhysicalPtr seq = PlanDeleteRead(&db, "v > 30");
  ASSERT_NE(seq, nullptr);
  std::vector<const PhysicalNode*> scans;
  Collect(*seq, PhysicalNodeKind::kSeqScan, &scans);
  ASSERT_EQ(scans.size(), 1u) << seq->ToString();
  EXPECT_EQ(SchemaNames(scans[0]->schema()), (Names{"big.v", "big.#rid"}));
  // An index scan whose bounds consume the predicate decodes no column.
  PhysicalPtr indexed = PlanDeleteRead(&db, "k = 7");
  ASSERT_NE(indexed, nullptr);
  scans.clear();
  Collect(*indexed, PhysicalNodeKind::kIndexScan, &scans);
  ASSERT_EQ(scans.size(), 1u) << indexed->ToString();
  EXPECT_EQ(SchemaNames(scans[0]->schema()), Names{"big.#rid"});
}

/// The rows of `d` after `statements`, planned naively or not, at one batch
/// size and parallelism, plus an indexed count that reads `d`'s B+tree.
std::vector<std::string> RunDml(bool naive, size_t batch, size_t parallelism,
                                const std::vector<std::string>& statements) {
  Database db;
  tu::Sql(&db, "CREATE TABLE d (k INT, s TEXT, v INT)");
  std::string insert = "INSERT INTO d VALUES ";
  for (int i = 0; i < 500; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 's" + std::to_string(i % 13) + "', " +
              std::to_string((i * 37) % 1000) + ")";
  }
  tu::Sql(&db, insert);
  tu::Sql(&db, "CREATE INDEX d_k ON d (k)");
  tu::Sql(&db, "ANALYZE");
  db.options().optimizer.naive = naive;
  db.set_batch_size(batch);
  db.set_parallelism(parallelism);
  for (const std::string& sql : statements) tu::CheckedSql(&db, sql);
  db.options().optimizer.naive = false;
  std::vector<std::string> out = Canon(tu::Sql(&db, "SELECT k, s, v FROM d"));
  out.push_back(tu::Sql(&db, "SELECT count(*) FROM d WHERE k < 450").rows[0].ToString());
  return out;
}

TEST_F(ColumnPruningTest, DmlMatchesNaiveAtEveryBatchSizeAndParallelism) {
  const std::vector<std::string> statements = {
      "DELETE FROM d WHERE v > 900",             // decodes v and #rid
      "DELETE FROM d WHERE k < 20",              // index scan: #rid alone
      "DELETE FROM d WHERE s = 's7' AND v < 500",
      "UPDATE d SET v = 1 WHERE k >= 400",       // whole rows written back
      "UPDATE d SET s = 'x', k = k + 1000 WHERE v % 3 = 0",
      "DELETE FROM d WHERE k > 1200",
  };
  const std::vector<std::string> expected = RunDml(/*naive=*/true, 1024, 1, statements);
  for (size_t parallelism : {1, 4}) {
    for (size_t batch : {1, 7, 1024}) {
      EXPECT_EQ(RunDml(/*naive=*/false, batch, parallelism, statements), expected)
          << "parallelism " << parallelism << ", batch " << batch;
    }
  }
  // A DELETE with no WHERE reads nothing but RIDs.
  const std::vector<std::string> all = {"DELETE FROM d"};
  EXPECT_EQ(RunDml(false, 7, 4, all), RunDml(true, 1024, 1, all));
}

}  // namespace
}  // namespace relopt
