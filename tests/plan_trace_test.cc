// Optimizer trace tests: the decision log records candidates, prune reasons,
// and the chosen plan, and survives the EXPLAIN TRACE round trip.
#include <gtest/gtest.h>

#include "optimizer/plan_trace.h"
#include "test_util.h"

namespace relopt {
namespace {

using tu::Sql;

void LoadFourWay(Database* db) {
  Sql(db, "CREATE TABLE a (id INT, v INT)");
  Sql(db, "CREATE TABLE b (id INT, a_id INT)");
  Sql(db, "CREATE TABLE c (id INT, b_id INT)");
  Sql(db, "CREATE TABLE d (id INT, c_id INT)");
  auto fill = [db](const std::string& table, int rows, int fk_mod) {
    std::string ins = "INSERT INTO " + table + " VALUES ";
    for (int i = 0; i < rows; ++i) {
      if (i > 0) ins += ", ";
      ins += "(" + std::to_string(i) + ", " + std::to_string(i % fk_mod) + ")";
    }
    Sql(db, ins);
  };
  fill("a", 40, 7);
  fill("b", 80, 40);
  fill("c", 160, 80);
  fill("d", 320, 160);
  Sql(db, "ANALYZE");
}

constexpr char kFourWayJoin[] =
    "SELECT a.v FROM a, b, c, d "
    "WHERE a.id = b.a_id AND b.id = c.b_id AND c.id = d.c_id";

TEST(PlanTraceTest, FourWayJoinRecordsPrunedCandidatesWithReasons) {
  Database db;
  LoadFourWay(&db);
  db.set_trace_optimizer(true);
  Sql(&db, kFourWayJoin);

  const PlanTrace* trace = db.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_GE(trace->CountKept(), 4u);    // at least one kept path per relation
  EXPECT_GE(trace->CountPruned(), 1u);  // DP must discard dominated plans
  for (const PlanTraceEvent& e : trace->events()) {
    if (e.action == "pruned") {
      EXPECT_FALSE(e.reason.empty()) << e.candidate;
    } else {
      EXPECT_TRUE(e.action == "kept" || e.action == "chosen") << e.action;
    }
  }
}

TEST(PlanTraceTest, TraceEndsWithOneChosenPlan) {
  Database db;
  LoadFourWay(&db);
  db.set_trace_optimizer(true);
  Sql(&db, kFourWayJoin);

  const PlanTrace* trace = db.last_trace();
  ASSERT_NE(trace, nullptr);
  // The default DPccp ladder also logs the strategy it chose; one plan is.
  size_t chosen = 0;
  for (const PlanTraceEvent& e : trace->events()) {
    if (e.action == "chosen" && e.phase != "strategy") {
      ++chosen;
      EXPECT_EQ(e.phase, "final");
      EXPECT_EQ(e.target, "{a,b,c,d}");
    }
  }
  EXPECT_EQ(chosen, 1u);
}

TEST(PlanTraceTest, JoinPhaseCandidatesNameBothSides) {
  Database db;
  LoadFourWay(&db);
  db.set_trace_optimizer(true);
  Sql(&db, kFourWayJoin);

  const PlanTrace* trace = db.last_trace();
  ASSERT_NE(trace, nullptr);
  bool saw_join = false;
  for (const PlanTraceEvent& e : trace->events()) {
    if (e.phase != "join") continue;
    saw_join = true;
    EXPECT_NE(e.candidate.find(" x "), std::string::npos) << e.candidate;
    EXPECT_GE(e.total_cost, 0.0);
  }
  EXPECT_TRUE(saw_join);
}

TEST(PlanTraceTest, JsonDumpListsEvents) {
  Database db;
  LoadFourWay(&db);
  db.set_trace_optimizer(true);
  Sql(&db, kFourWayJoin);

  const PlanTrace* trace = db.last_trace();
  ASSERT_NE(trace, nullptr);
  std::string json = trace->ToJson();
  EXPECT_EQ(json.find("{\"events\":["), 0u);
  EXPECT_NE(json.find("\"action\":\"pruned\""), std::string::npos);
  EXPECT_NE(json.find("\"action\":\"chosen\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":"), std::string::npos);
}

TEST(PlanTraceTest, ExplainTraceStatementAppendsDecisionLog) {
  Database db;
  LoadFourWay(&db);
  QueryResult r = Sql(&db, std::string("EXPLAIN TRACE ") + kFourWayJoin);
  ASSERT_FALSE(r.rows.empty());
  bool saw_header = false, saw_pruned = false;
  for (const Tuple& row : r.rows) {
    std::string line = row.At(0).AsString();
    if (line.find("optimizer trace") != std::string::npos) saw_header = true;
    if (line.find("pruned") != std::string::npos) saw_pruned = true;
  }
  EXPECT_TRUE(saw_header);
  EXPECT_TRUE(saw_pruned);
}

TEST(PlanTraceTest, TracingOffRecordsNothingNew) {
  Database db;
  LoadFourWay(&db);
  Sql(&db, kFourWayJoin);
  EXPECT_EQ(db.last_trace(), nullptr);
}

}  // namespace
}  // namespace relopt
