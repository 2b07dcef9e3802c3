// Cost model formula tests: shapes, monotonicity, crossover behaviour.
#include <gtest/gtest.h>

#include "optimizer/cost_model.h"

namespace relopt {
namespace {

TEST(CostModelTest, EstimatePages) {
  EXPECT_DOUBLE_EQ(CostModel::EstimatePages(0, 100), 0);
  EXPECT_DOUBLE_EQ(CostModel::EstimatePages(40, 100), 1);   // 40 rows fit one page
  EXPECT_DOUBLE_EQ(CostModel::EstimatePages(41, 100), 2);   // 40 per page
  EXPECT_DOUBLE_EQ(CostModel::EstimatePages(1, 10000), 1);  // huge rows: 1/page
}

TEST(CostModelTest, YaoSaturatesAtPages) {
  EXPECT_DOUBLE_EQ(CostModel::YaoPagesTouched(0, 100), 0);
  EXPECT_NEAR(CostModel::YaoPagesTouched(1, 100), 1, 0.01);
  EXPECT_NEAR(CostModel::YaoPagesTouched(1000000, 100), 100, 0.01);
  // Monotonic in k.
  double prev = 0;
  for (double k = 1; k <= 512; k *= 2) {
    double v = CostModel::YaoPagesTouched(k, 100);
    EXPECT_GT(v, prev);
    prev = v;
  }
  EXPECT_LE(prev, 100);
}

TEST(CostModelTest, SeqScanIsPagesPlusCpu) {
  CostModel cm(128);
  Cost c = cm.SeqScan(1000, 50);
  EXPECT_DOUBLE_EQ(c.page_ios, 50);
  EXPECT_DOUBLE_EQ(c.cpu_tuples, 1000);
}

TEST(CostModelTest, ClusteredIndexScanCheaperThanUnclusteredAtModestSelectivity) {
  CostModel cm(128);
  // 10% of a 10k-row, 250-page table.
  Cost clustered = cm.IndexScan(1000, 0.1, 10000, 250, 2, 30, true);
  Cost unclustered = cm.IndexScan(1000, 0.1, 10000, 250, 2, 30, false);
  EXPECT_LT(clustered.page_ios, unclustered.page_ios);
}

TEST(CostModelTest, IndexVsSeqScanCrossover) {
  CostModel cm(128);
  Cost seq = cm.SeqScan(10000, 250);
  // Highly selective: index wins.
  Cost selective = cm.IndexScan(10, 0.001, 10000, 250, 2, 30, false);
  EXPECT_LT(cm.Total(selective), cm.Total(seq));
  // Unselective unclustered: seq scan wins.
  Cost unselective = cm.IndexScan(8000, 0.8, 10000, 250, 2, 30, false);
  EXPECT_GT(cm.Total(unselective), cm.Total(seq));
}

TEST(CostModelTest, SortFreeWhenFitsInMemory) {
  CostModel cm(128);
  Cost c = cm.Sort(1000, 50);  // 50 pages < 120 memory pages
  EXPECT_DOUBLE_EQ(c.page_ios, 0);
  EXPECT_GT(c.cpu_tuples, 0);
}

TEST(CostModelTest, SortSpillsWithRunsAndPasses) {
  CostModel cm(16);  // operator memory = 8 pages, fan-in 7
  double runs = 0, passes = 0;
  Cost c = cm.Sort(100000, 800, &runs, &passes);
  EXPECT_DOUBLE_EQ(runs, 100);               // ceil(800/8)
  EXPECT_DOUBLE_EQ(passes, 2);               // 100 -> 15 -> 3 (two passes), then stream
  EXPECT_DOUBLE_EQ(c.page_ios, 2 * 800 * 3); // 2P(1+passes)
}

TEST(CostModelTest, NljScalesWithOuterRows) {
  CostModel cm(128);
  Cost inner = cm.SeqScan(1000, 25);
  Cost small = cm.NestedLoop(10, inner, 1000);
  Cost big = cm.NestedLoop(1000, inner, 1000);
  EXPECT_DOUBLE_EQ(small.page_ios, 10 * 25);
  EXPECT_DOUBLE_EQ(big.page_ios, 1000 * 25);
}

TEST(CostModelTest, BnljScalesWithOuterBlocks) {
  CostModel cm(34);  // operator memory 26, block = 24 pages
  Cost inner = cm.SeqScan(1000, 25);
  // 100 outer pages -> ceil(100/24) = 5 inner scans.
  Cost c = cm.BlockNestedLoop(4000, 100, inner, 1000);
  EXPECT_DOUBLE_EQ(c.page_ios, 5 * 25);
}

TEST(CostModelTest, BnljBeatsNljAlwaysWithMultiPageOuter) {
  CostModel cm(128);
  Cost inner = cm.SeqScan(1000, 25);
  Cost nlj = cm.NestedLoop(4000, inner, 1000);
  Cost bnlj = cm.BlockNestedLoop(4000, 100, inner, 1000);
  EXPECT_LT(cm.Total(bnlj), cm.Total(nlj));
}

TEST(CostModelTest, InljChargesIndexProbesPerOuterRow) {
  CostModel cm(128);
  Cost c = cm.IndexNestedLoop(100, 2, 1.0, 250, 10000, false);
  // height 2 + ~1 page per match, per probe.
  EXPECT_NEAR(c.page_ios, 100 * 3.0, 5.0);
}

TEST(CostModelTest, InljWinsAtSmallOuterLosesAtHuge) {
  CostModel cm(128);
  Cost inner_scan = cm.SeqScan(100000, 2500);
  // Small outer: probing beats scanning the inner even once.
  Cost inlj_small = cm.IndexNestedLoop(10, 3, 1.0, 2500, 100000, false);
  EXPECT_LT(cm.Total(inlj_small), cm.Total(inner_scan));
  // Huge outer: probe cost explodes past one hash pass.
  Cost inlj_big = cm.IndexNestedLoop(1000000, 3, 1.0, 2500, 100000, false);
  Cost hash = cm.HashJoin(100000, 2500, 1000000, 25000);
  EXPECT_GT(cm.Total(inlj_big), cm.Total(hash) + cm.Total(inner_scan));
}

TEST(CostModelTest, HashJoinFreeIoWhenBuildFits) {
  CostModel cm(128);
  Cost c = cm.HashJoin(1000, 25, 5000, 125);
  EXPECT_DOUBLE_EQ(c.page_ios, 0);
}

TEST(CostModelTest, GraceHashChargesPartitioning) {
  CostModel cm(16);  // memory 8 pages
  Cost c = cm.HashJoin(10000, 250, 50000, 1250);
  EXPECT_DOUBLE_EQ(c.page_ios, 2 * (250 + 1250));
}

TEST(CostModelTest, MergeJoinIsCpuOnly) {
  CostModel cm(128);
  Cost c = cm.MergeJoin(1000, 2000, 1500);
  EXPECT_DOUBLE_EQ(c.page_ios, 0);
  EXPECT_DOUBLE_EQ(c.cpu_tuples, 4500);
}

TEST(CostModelTest, CpuWeightAffectsTotals) {
  CostModel cheap_cpu(128, 0.0001);
  CostModel pricey_cpu(128, 1.0);
  Cost c{10, 1000};
  EXPECT_NEAR(cheap_cpu.Total(c), 10.1, 0.001);
  EXPECT_DOUBLE_EQ(pricey_cpu.Total(c), 1010);
}

TEST(CostModelTest, CostAddition) {
  Cost a{1, 10};
  Cost b{2, 20};
  Cost c = a + b;
  EXPECT_DOUBLE_EQ(c.page_ios, 3);
  EXPECT_DOUBLE_EQ(c.cpu_tuples, 30);
  a += b;
  EXPECT_DOUBLE_EQ(a.page_ios, 3);
}

}  // namespace
}  // namespace relopt
