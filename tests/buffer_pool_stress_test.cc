// BufferPool concurrency stress: many threads hammering a pool smaller than
// the working set must lose no writes, never underflow a pin count, and keep
// the hit/miss counters consistent. Concurrent faults of one page share one
// disk read, failed reads lose no frame, and the replacement order matches a
// plain LRU list model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "test_util.h"
#include "util/rng.h"

namespace relopt {
namespace {

uint64_t ReadCounter(const PageFrame* frame) {
  uint64_t v;
  std::memcpy(&v, frame->data(), sizeof(v));
  return v;
}

void WriteCounter(PageFrame* frame, uint64_t v) { std::memcpy(frame->data(), &v, sizeof(v)); }

class BufferPoolStressTest : public ::testing::Test {
 protected:
  static constexpr size_t kPoolPages = 16;  // much smaller than the working set
  static constexpr size_t kFilePages = 64;

  void SetUp() override {
    pool_ = std::make_unique<BufferPool>(&disk_, kPoolPages);
    file_id_ = disk_.CreateFile();
    for (size_t i = 0; i < kFilePages; ++i) {
      Result<PageFrame*> frame = pool_->NewPage(file_id_);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_OK(pool_->UnpinPage((*frame)->page_id(), /*dirty=*/true));
    }
    ASSERT_OK(pool_->FlushAll());
    ASSERT_OK(pool_->EvictAll());
  }

  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  FileId file_id_ = 0;
};

TEST_F(BufferPoolStressTest, ConcurrentIncrementsLoseNoWrites) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 2000;
  std::atomic<int> errors{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Deterministic per-thread page walk; co-prime stride spreads threads
      // over the file so every page sees contention from several threads.
      uint64_t state = static_cast<uint64_t>(t) * 2654435761u + 1;
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        PageNo page = static_cast<PageNo>((state >> 33) % kFilePages);
        Result<PageFrame*> frame = pool_->FetchPage(PageId{file_id_, page});
        if (!frame.ok()) {
          ++errors;
          continue;
        }
        {
          std::unique_lock<std::shared_mutex> latch((*frame)->latch());
          WriteCounter(*frame, ReadCounter(*frame) + 1);
        }
        if (!pool_->UnpinPage((*frame)->page_id(), /*dirty=*/true).ok()) ++errors;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);

  // Evict everything so the sum below reads what actually hit the frames
  // (and, transitively, survived write-back + re-fault round trips).
  ASSERT_OK(pool_->FlushAll());
  ASSERT_OK(pool_->EvictAll());
  uint64_t total = 0;
  for (size_t p = 0; p < kFilePages; ++p) {
    Result<PageFrame*> frame = pool_->FetchPage(PageId{file_id_, static_cast<PageNo>(p)});
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    total += ReadCounter(*frame);
    ASSERT_OK(pool_->UnpinPage((*frame)->page_id(), false));
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST_F(BufferPoolStressTest, StatsAreConsistentUnderConcurrency) {
  constexpr int kThreads = 6;
  constexpr int kFetchesPerThread = 3000;
  pool_->ResetStats();
  disk_.ResetStats();

  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFetchesPerThread; ++i) {
        PageNo page = static_cast<PageNo>((t * 13 + i * 7) % kFilePages);
        Result<PageFrame*> frame = pool_->FetchPage(PageId{file_id_, page});
        if (!frame.ok()) {
          ++errors;
          continue;
        }
        std::shared_lock<std::shared_mutex> latch((*frame)->latch());
        (void)ReadCounter(*frame);
        latch.unlock();
        if (!pool_->UnpinPage((*frame)->page_id(), false).ok()) ++errors;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);

  BufferPoolStats stats = pool_->stats();
  // Every fetch is exactly one hit or one miss — no drops, no double counts.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kFetchesPerThread);
  // Every miss faulted from disk; clean pages evict without write-back.
  EXPECT_EQ(disk_.stats().page_reads, stats.misses);
  EXPECT_EQ(disk_.stats().page_writes, 0u);
  // The pool never exceeds capacity.
  EXPECT_LE(pool_->NumCached(), kPoolPages);
}

TEST_F(BufferPoolStressTest, PinCountsNeverUnderflowOrLeak) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        PageId pid{file_id_, static_cast<PageNo>((t + i) % kFilePages)};
        Result<PageFrame*> frame = pool_->FetchPage(pid);
        if (!frame.ok()) {
          ++errors;
          continue;
        }
        // Double-unpin must fail loudly instead of corrupting the count.
        if (!pool_->UnpinPage(pid, false).ok()) ++errors;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  // All pins released: EvictAll succeeds only if nothing is still pinned.
  ASSERT_OK(pool_->EvictAll());
  EXPECT_EQ(pool_->NumCached(), 0u);
  // And a stray extra unpin is rejected, not wrapped around.
  Result<PageFrame*> frame = pool_->FetchPage(PageId{file_id_, 0});
  ASSERT_TRUE(frame.ok());
  ASSERT_OK(pool_->UnpinPage(PageId{file_id_, 0}, false));
  EXPECT_FALSE(pool_->UnpinPage(PageId{file_id_, 0}, false).ok());
}

TEST_F(BufferPoolStressTest, ConcurrentMissesOfOnePageReadItOnce) {
  // Every thread faults the same uncached page at once. One thread reads it;
  // the others find its frame still loading, count a hit, and wait for the
  // bytes outside the pool mutex.
  constexpr int kThreads = 8;
  constexpr uint64_t kStamp = 0xC0FFEE;
  const PageId pid{file_id_, 5};
  {
    Result<PageFrame*> frame = pool_->FetchPage(pid);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    WriteCounter(*frame, kStamp);
    ASSERT_OK(pool_->UnpinPage(pid, /*dirty=*/true));
  }
  ASSERT_OK(pool_->FlushAll());
  ASSERT_OK(pool_->EvictAll());
  pool_->ResetStats();
  disk_.ResetStats();

  std::atomic<int> arrived{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      Result<PageFrame*> frame = pool_->FetchPage(pid);
      if (!frame.ok()) {
        ++errors;
        return;
      }
      {
        std::shared_lock<std::shared_mutex> latch((*frame)->latch());
        if (ReadCounter(*frame) != kStamp) ++errors;
      }
      if (!pool_->UnpinPage(pid, false).ok()) ++errors;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(disk_.stats().page_reads, 1u);
  EXPECT_EQ(pool_->stats().misses, 1u);
  EXPECT_EQ(pool_->stats().hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(pool_->NumPinned(), 0u);
}

TEST_F(BufferPoolStressTest, FailedLoadsLoseNoFrames) {
  // On a pool with one frame per thread, threads fault pages past the end of
  // the file among valid ones; two bad page numbers make threads meet on the
  // same failing load. Every bad fetch fails with the read's own error, and
  // no frame stays pinned or unmapped afterwards.
  constexpr size_t kSmallPool = 4;
  constexpr int kThreads = 4;  // <= frames: a fault always finds a free one
  constexpr int kFetchesPerThread = 2000;
  BufferPool pool(&disk_, kSmallPool);
  std::atomic<int> errors{0};
  std::atomic<int> bad_fetches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFetchesPerThread; ++i) {
        const bool bad = i % 3 == 0;
        PageId pid{file_id_, static_cast<PageNo>(bad ? kFilePages + (i / 3) % 2
                                                     : (t * 7 + i) % kFilePages)};
        Result<PageFrame*> frame = pool.FetchPage(pid);
        if (bad) {
          ++bad_fetches;
          if (frame.ok() || frame.status().code() != StatusCode::kOutOfRange) ++errors;
          continue;
        }
        if (!frame.ok() || (*frame)->page_id() != pid) {
          ++errors;
          continue;
        }
        if (!pool.UnpinPage(pid, false).ok()) ++errors;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(bad_fetches.load(), kThreads * ((kFetchesPerThread + 2) / 3));
  EXPECT_EQ(pool.NumPinned(), 0u);
  ASSERT_OK(pool.EvictAll());
  EXPECT_EQ(pool.NumCached(), 0u);
  // Every frame is usable again: pin a full pool's worth of distinct pages.
  for (PageNo p = 0; p < kSmallPool; ++p) {
    Result<PageFrame*> frame = pool.FetchPage(PageId{file_id_, p});
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  }
  EXPECT_EQ(pool.NumPinned(), kSmallPool);
  for (PageNo p = 0; p < kSmallPool; ++p) ASSERT_OK(pool.UnpinPage(PageId{file_id_, p}, false));
}

// The replacement order that every page-read figure rests on. A seeded mix of
// fetches, unpins and NewPage calls runs against a plain std::list LRU model
// (front = most recent; evict the least recent unpinned page). Each page
// lives in a file of its own, so the per-file disk counters name the page a
// miss read and the page an eviction wrote back. Every unpin marks the page
// dirty, so every eviction writes its victim back.
TEST(BufferPoolLruModelTest, ReplacementOrderMatchesListModel) {
  for (size_t capacity : {4, 6, 8}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    DiskManager disk;
    BufferPool pool(&disk, capacity);
    Rng rng(capacity * 7919);
    std::vector<FileId> files;  // page i is page 0 of files[i]
    for (size_t i = 0; i < 3 * capacity; ++i) {
      files.push_back(disk.CreateFile());
      ASSERT_TRUE(disk.AllocatePage(files.back()).ok());
    }
    std::list<size_t> lru;  // cached pages, most recent first
    std::vector<int> pins(files.size(), 0);

    // Returns the page the model evicts next, or -1 if every frame is pinned.
    auto model_victim = [&]() -> int {
      for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
        if (pins[*it] == 0) return static_cast<int>(*it);
      }
      return -1;
    };
    // Places a faulted page in the model; returns the evicted page or -1.
    // Requires room (a free frame or an unpinned victim).
    auto model_fault = [&](size_t page) -> int {
      int victim = -1;
      if (lru.size() == capacity) {
        victim = model_victim();
        lru.remove(static_cast<size_t>(victim));
      }
      lru.push_front(page);
      pins[page] = 1;
      return victim;
    };

    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<IoStats> before;
      for (FileId f : files) before.push_back(disk.FileStats(f));
      const BufferPoolStats stats_before = pool.stats();
      const bool full_and_pinned = lru.size() == capacity && model_victim() < 0;
      int expect_read = -1;
      int expect_victim = -1;
      bool expect_hit = false;

      const int64_t op = rng.UniformInt(0, 99);
      std::vector<size_t> pinned;
      for (size_t i = 0; i < pins.size(); ++i) {
        if (pins[i] > 0) pinned.push_back(i);
      }
      if (op < 45 || (op < 90 && pinned.empty())) {
        // Fetch: half the time from a hot set smaller than the pool.
        size_t page = static_cast<size_t>(rng.Bernoulli(0.5)
                                              ? rng.UniformInt(0, capacity - 2)
                                              : rng.UniformInt(0, files.size() - 1));
        const PageId pid{files[page], 0};
        Result<PageFrame*> frame = pool.FetchPage(pid);
        auto cached = std::find(lru.begin(), lru.end(), page);
        if (cached != lru.end()) {
          expect_hit = true;
          lru.erase(cached);
          lru.push_front(page);
          pins[page]++;
          ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        } else if (full_and_pinned) {
          ASSERT_EQ(frame.status().code(), StatusCode::kResourceExhausted);
        } else {
          ASSERT_TRUE(frame.ok()) << frame.status().ToString();
          expect_read = static_cast<int>(page);
          expect_victim = model_fault(page);
        }
        if (frame.ok()) {
          ASSERT_EQ((*frame)->page_id(), pid);
        }
        EXPECT_EQ(pool.stats().hits - stats_before.hits, expect_hit ? 1u : 0u);
        EXPECT_EQ(pool.stats().misses - stats_before.misses, expect_hit ? 0u : 1u);
      } else if (op < 90) {
        size_t page = pinned[rng.UniformInt(0, pinned.size() - 1)];
        ASSERT_OK(pool.UnpinPage(PageId{files[page], 0}, /*dirty=*/true));
        pins[page]--;
      } else {
        FileId f = disk.CreateFile();
        Result<PageFrame*> frame = pool.NewPage(f);
        if (full_and_pinned) {
          ASSERT_EQ(frame.status().code(), StatusCode::kResourceExhausted);
          EXPECT_EQ(disk.NumPages(f), 0u);
        } else {
          ASSERT_TRUE(frame.ok()) << frame.status().ToString();
          ASSERT_EQ((*frame)->page_id(), (PageId{f, 0}));
          files.push_back(f);
          pins.push_back(0);
          before.push_back(IoStats{});
          expect_victim = model_fault(files.size() - 1);
        }
      }

      // The pool read exactly the page the model faulted and wrote back
      // exactly the victim the model chose.
      for (size_t i = 0; i < files.size(); ++i) {
        IoStats now = disk.FileStats(files[i]);
        EXPECT_EQ(now.page_reads - before[i].page_reads,
                  expect_read == static_cast<int>(i) ? 1u : 0u)
            << "page " << i;
        EXPECT_EQ(now.page_writes - before[i].page_writes,
                  expect_victim == static_cast<int>(i) ? 1u : 0u)
            << "page " << i;
      }
      EXPECT_EQ(pool.stats().evictions - stats_before.evictions, expect_victim >= 0 ? 1u : 0u);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(pool.NumCached(), lru.size());
    EXPECT_EQ(pool.NumPinned(),
              static_cast<size_t>(std::count_if(pins.begin(), pins.end(),
                                                [](int p) { return p > 0; })));
  }
}

TEST_F(BufferPoolStressTest, ConcurrentHeapInsertsAllSurvive) {
  // End-to-end storage check: concurrent HeapFile::Insert through the pool
  // must persist every record exactly once.
  Result<HeapFile> heap_r = HeapFile::Create(pool_.get());
  ASSERT_TRUE(heap_r.ok());
  HeapFile heap = heap_r.MoveValue();

  constexpr int kThreads = 6;
  constexpr int kRowsPerThread = 500;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRowsPerThread; ++i) {
        std::string record = "t" + std::to_string(t) + "-r" + std::to_string(i);
        if (!heap.Insert(record).ok()) ++errors;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);

  size_t count = 0;
  HeapFile::PageCursor cursor(&heap);
  ASSERT_TRUE(cursor.Rewind().ok());
  Rid rid;
  std::string_view bytes;
  while (true) {
    Result<bool> has = cursor.Next(&rid, &bytes);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    ++count;
  }
  EXPECT_EQ(count, static_cast<size_t>(kThreads) * kRowsPerThread);
}

}  // namespace
}  // namespace relopt
