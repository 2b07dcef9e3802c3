// Feedback-on-vs-off differential harness: cardinality feedback may only ever
// change PLANS, never RESULTS. Every corpus query must return the same bag of
// rows with the store cold, warm (second run, observed cardinalities active),
// and off — at batch sizes 1 and 1024 and parallelism 1/2/4/8 — and the
// exact page-I/O accounting identity must hold for feedback-driven plans too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "differential_queries.h"
#include "exec/plan_profile.h"
#include "test_util.h"
#include "util/metrics.h"

namespace relopt {
namespace {

using tu::kDifferentialQueries;
using tu::Sql;

std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

class FeedbackDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  FeedbackDifferentialTest() {
    tu::LoadDifferentialFixture(&baseline_);
    tu::LoadDifferentialFixture(&feedback_);
    feedback_.set_cardinality_feedback(true);
  }

  Database baseline_;   // feedback off: pure statistical estimates
  Database feedback_;   // feedback on: harvested actuals override estimates
};

TEST_P(FeedbackDifferentialTest, ResultsAgreeColdAndWarm) {
  const int parallelism = GetParam();
  baseline_.set_parallelism(parallelism);
  feedback_.set_parallelism(parallelism);
  for (size_t batch_size : {size_t{1}, TupleBatch::kDefaultCapacity}) {
    baseline_.set_batch_size(batch_size);
    feedback_.set_batch_size(batch_size);
    for (const char* q : kDifferentialQueries) {
      const std::string mode = std::string(q) + " @ parallelism " +
                               std::to_string(parallelism) + ", batch " +
                               std::to_string(batch_size);
      std::vector<std::string> expected = Canon(Sql(&baseline_, q));
      // Cold: the store may harvest but has nothing (relevant) to apply yet.
      EXPECT_EQ(Canon(Sql(&feedback_, q)), expected) << mode << " (cold)";
      // Warm: this optimization consults the actuals the cold run recorded.
      EXPECT_EQ(Canon(Sql(&feedback_, q)), expected) << mode << " (warm)";
    }
  }
  // The corpus actually populated the store: the warm runs were not vacuous.
  EXPECT_GT(feedback_.feedback()->size(), 0u);
}

TEST_P(FeedbackDifferentialTest, PageIoAccountingStaysExact) {
  // Same identity introspection_test checks, but with feedback-driven plans:
  // the global registry delta, the per-statement counters, and the summed
  // EXPLAIN ANALYZE attribution must agree exactly.
  const int parallelism = GetParam();
  const EngineMetrics& em = EngineMetrics::Get();
  feedback_.set_parallelism(parallelism);
  for (const char* q : kDifferentialQueries) {
    const std::string mode =
        std::string(q) + " @ parallelism " + std::to_string(parallelism);
    const uint64_t reads_before = em.disk_page_reads->value();
    const uint64_t writes_before = em.disk_page_writes->value();
    Sql(&feedback_, q);
    const uint64_t reads_delta = em.disk_page_reads->value() - reads_before;
    const uint64_t writes_delta = em.disk_page_writes->value() - writes_before;

    const ExecutionMetrics& m = feedback_.last_metrics();
    EXPECT_EQ(reads_delta, m.io.page_reads) << mode;
    EXPECT_EQ(writes_delta, m.io.page_writes) << mode;
    ASSERT_TRUE(feedback_.last_profile().valid) << mode;
    EXPECT_EQ(feedback_.last_profile().Total().page_reads, m.io.page_reads) << mode;
    EXPECT_EQ(feedback_.last_profile().Total().page_writes, m.io.page_writes) << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, FeedbackDifferentialTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace relopt
