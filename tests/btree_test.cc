// B+tree tests: inserts, splits, duplicates, range scans, deletes, integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "storage/btree.h"
#include "types/key_codec.h"
#include "util/rng.h"

namespace relopt {
namespace {

std::string IntKey(int64_t v) { return EncodeKey({Value::Int(v)}); }

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 256), tree_(*BTree::Create(&pool_)) {}

  std::vector<std::pair<std::string, Rid>> ScanAll() {
    std::vector<std::pair<std::string, Rid>> out;
    BTree::Iterator it = *BTree::Iterator::Seek(&tree_, std::nullopt, true, std::nullopt, true);
    std::string key;
    Rid rid;
    while (*it.Next(&key, &rid)) out.push_back({key, rid});
    return out;
  }

  DiskManager disk_;
  BufferPool pool_;
  BTree tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_EQ(tree_.Height(), 1);
  EXPECT_EQ(*tree_.NumEntries(), 0u);
  EXPECT_TRUE(tree_.SearchEqual(IntKey(5))->empty());
  EXPECT_TRUE(ScanAll().empty());
  EXPECT_TRUE(tree_.CheckIntegrity().ok());
}

TEST_F(BTreeTest, InsertAndSearch) {
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(i), Rid{static_cast<PageNo>(i), 0}).ok());
  }
  EXPECT_EQ(*tree_.NumEntries(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    std::vector<Rid> rids = *tree_.SearchEqual(IntKey(i));
    ASSERT_EQ(rids.size(), 1u) << i;
    EXPECT_EQ(rids[0].page_no, static_cast<PageNo>(i));
  }
  EXPECT_TRUE(tree_.SearchEqual(IntKey(100))->empty());
  EXPECT_TRUE(tree_.CheckIntegrity().ok());
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  // Enough entries to force three levels (keys ~9 bytes + rid 6 -> ~240
  // entries per leaf page, ~190 separators per internal page).
  const int n = 60000;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(i), Rid{static_cast<PageNo>(i), 0}).ok());
  }
  EXPECT_GE(tree_.Height(), 3);
  EXPECT_EQ(*tree_.NumEntries(), static_cast<size_t>(n));
  EXPECT_GT(tree_.NumLeafPages(), 50u);
  ASSERT_TRUE(tree_.CheckIntegrity().ok());

  // Scan returns every key in order.
  auto all = ScanAll();
  ASSERT_EQ(all.size(), static_cast<size_t>(n));
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST_F(BTreeTest, RandomInsertOrderStaysSorted) {
  Rng rng(5);
  std::vector<size_t> perm = rng.Permutation(5000);
  for (size_t v : perm) {
    ASSERT_TRUE(tree_.Insert(IntKey(static_cast<int64_t>(v)), Rid{static_cast<PageNo>(v), 1}).ok());
  }
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
  auto all = ScanAll();
  ASSERT_EQ(all.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST_F(BTreeTest, DuplicateKeys) {
  for (uint16_t s = 0; s < 500; ++s) {
    ASSERT_TRUE(tree_.Insert(IntKey(7), Rid{1, s}).ok());
  }
  ASSERT_TRUE(tree_.Insert(IntKey(6), Rid{0, 0}).ok());
  ASSERT_TRUE(tree_.Insert(IntKey(8), Rid{2, 0}).ok());
  std::vector<Rid> rids = *tree_.SearchEqual(IntKey(7));
  EXPECT_EQ(rids.size(), 500u);
  // Duplicates come back in rid order (the tree's tiebreak).
  EXPECT_TRUE(std::is_sorted(rids.begin(), rids.end()));
  EXPECT_EQ(tree_.SearchEqual(IntKey(6))->size(), 1u);
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
}

TEST_F(BTreeTest, RangeScans) {
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(i * 2), Rid{static_cast<PageNo>(i), 0}).ok());  // even keys
  }
  auto scan = [&](std::optional<int64_t> lo, bool lo_inc, std::optional<int64_t> hi,
                  bool hi_inc) {
    std::optional<std::string> lo_k, hi_k;
    if (lo) lo_k = IntKey(*lo);
    if (hi) hi_k = IntKey(*hi);
    BTree::Iterator it = *BTree::Iterator::Seek(&tree_, lo_k, lo_inc, hi_k, hi_inc);
    int count = 0;
    std::string k;
    Rid r;
    while (*it.Next(&k, &r)) ++count;
    return count;
  };

  EXPECT_EQ(scan(std::nullopt, true, std::nullopt, true), 1000);
  EXPECT_EQ(scan(0, true, 10, true), 6);     // 0,2,4,6,8,10
  EXPECT_EQ(scan(0, false, 10, false), 4);   // 2,4,6,8
  EXPECT_EQ(scan(1, true, 9, true), 4);      // 2,4,6,8 (bounds between keys)
  EXPECT_EQ(scan(1990, true, std::nullopt, true), 5);  // 1990..1998
  EXPECT_EQ(scan(std::nullopt, true, 7, true), 4);     // 0,2,4,6
  EXPECT_EQ(scan(5000, true, 6000, true), 0);
}

TEST_F(BTreeTest, DeleteRemovesSpecificEntry) {
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(i), Rid{static_cast<PageNo>(i), 0}).ok());
  }
  // Delete every third key.
  for (int64_t i = 0; i < 2000; i += 3) {
    ASSERT_TRUE(tree_.Delete(IntKey(i), Rid{static_cast<PageNo>(i), 0}).ok());
  }
  for (int64_t i = 0; i < 2000; ++i) {
    bool deleted = (i % 3) == 0;
    EXPECT_EQ(tree_.SearchEqual(IntKey(i))->size(), deleted ? 0u : 1u) << i;
  }
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
}

TEST_F(BTreeTest, DeleteDistinguishesDuplicatesByRid) {
  ASSERT_TRUE(tree_.Insert(IntKey(1), Rid{10, 0}).ok());
  ASSERT_TRUE(tree_.Insert(IntKey(1), Rid{20, 0}).ok());
  ASSERT_TRUE(tree_.Delete(IntKey(1), Rid{10, 0}).ok());
  std::vector<Rid> rids = *tree_.SearchEqual(IntKey(1));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0].page_no, 20u);
  EXPECT_EQ(tree_.Delete(IntKey(1), Rid{10, 0}).code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, DeleteMissingKeyIsNotFound) {
  ASSERT_TRUE(tree_.Insert(IntKey(1), Rid{1, 0}).ok());
  EXPECT_EQ(tree_.Delete(IntKey(2), Rid{1, 0}).code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, StringKeysWithVariableLengths) {
  Rng rng(3);
  std::map<std::string, Rid> reference;
  for (int i = 0; i < 3000; ++i) {
    std::string key = EncodeKey({Value::String(rng.RandomString(1 + i % 40))});
    Rid rid{static_cast<PageNo>(i), 0};
    if (reference.emplace(key, rid).second) {
      ASSERT_TRUE(tree_.Insert(key, rid).ok());
    }
  }
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
  auto all = ScanAll();
  ASSERT_EQ(all.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, rid] : reference) {
    EXPECT_EQ(all[i].first, key);
    EXPECT_EQ(all[i].second, rid);
    ++i;
  }
}

TEST_F(BTreeTest, OversizeKeyRejected) {
  std::string huge(2000, 'k');
  EXPECT_EQ(tree_.Insert(huge, Rid{0, 0}).code(), StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, IndexIoGoesThroughBufferPool) {
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(i), Rid{static_cast<PageNo>(i), 0}).ok());
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  ASSERT_TRUE(pool_.EvictAll().ok());
  disk_.ResetStats();
  // A cold point lookup reads its path: height pages, each once.
  int height = tree_.Height();
  disk_.ResetStats();
  ASSERT_TRUE(tree_.SearchEqual(IntKey(2500)).ok());
  EXPECT_EQ(disk_.stats().page_reads, static_cast<uint64_t>(height));
}

TEST_F(BTreeTest, SeekWithExclusiveLowerBoundSkipsAllDuplicates) {
  for (uint16_t s = 0; s < 50; ++s) {
    ASSERT_TRUE(tree_.Insert(IntKey(5), Rid{1, s}).ok());
  }
  ASSERT_TRUE(tree_.Insert(IntKey(6), Rid{2, 0}).ok());
  BTree::Iterator it = *BTree::Iterator::Seek(&tree_, IntKey(5), /*lo_inclusive=*/false,
                                              std::nullopt, true);
  std::string k;
  Rid r;
  ASSERT_TRUE(*it.Next(&k, &r));
  EXPECT_EQ(k, IntKey(6));
  EXPECT_FALSE(*it.Next(&k, &r));
}

}  // namespace
}  // namespace relopt
