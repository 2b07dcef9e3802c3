// DiskManager, BufferPool, SlottedPage, HeapFile tests.
#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/slotted_page.h"
#include "util/rng.h"

namespace relopt {
namespace {

// ------------------------------------------------------------ DiskManager --

TEST(DiskManagerTest, CreateAllocateReadWrite) {
  DiskManager disk;
  FileId f = disk.CreateFile();
  EXPECT_TRUE(disk.FileExists(f));
  EXPECT_EQ(disk.NumPages(f), 0u);

  PageNo p = *disk.AllocatePage(f);
  EXPECT_EQ(p, 0u);
  EXPECT_EQ(disk.NumPages(f), 1u);

  char out[kPageSize];
  ASSERT_TRUE(disk.ReadPage({f, p}, out).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(out[i], 0) << i;

  char data[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) data[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(disk.WritePage({f, p}, data).ok());
  ASSERT_TRUE(disk.ReadPage({f, p}, out).ok());
  EXPECT_EQ(memcmp(out, data, kPageSize), 0);
}

TEST(DiskManagerTest, CountsIo) {
  DiskManager disk;
  FileId f = disk.CreateFile();
  PageNo p = *disk.AllocatePage(f);
  char buf[kPageSize] = {0};
  ASSERT_TRUE(disk.ReadPage({f, p}, buf).ok());
  ASSERT_TRUE(disk.ReadPage({f, p}, buf).ok());
  ASSERT_TRUE(disk.WritePage({f, p}, buf).ok());
  EXPECT_EQ(disk.stats().page_reads, 2u);
  EXPECT_EQ(disk.stats().page_writes, 1u);
  EXPECT_EQ(disk.stats().pages_allocated, 1u);
  EXPECT_EQ(disk.FileStats(f).page_reads, 2u);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().page_reads, 0u);
  EXPECT_EQ(disk.FileStats(f).page_reads, 0u);
}

TEST(DiskManagerTest, ErrorsOnBadAccess) {
  DiskManager disk;
  char buf[kPageSize];
  EXPECT_EQ(disk.ReadPage({999, 0}, buf).code(), StatusCode::kNotFound);
  FileId f = disk.CreateFile();
  EXPECT_EQ(disk.ReadPage({f, 5}, buf).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(disk.AllocatePage(12345).ok());
}

TEST(DiskManagerTest, DeleteFileFreesIt) {
  DiskManager disk;
  FileId f = disk.CreateFile();
  disk.DeleteFile(f);
  EXPECT_FALSE(disk.FileExists(f));
  disk.DeleteFile(f);  // idempotent
}

// ------------------------------------------------------------- BufferPool --

TEST(BufferPoolTest, FetchHitsAfterMiss) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  FileId f = disk.CreateFile();
  PageFrame* frame = *pool.NewPage(f);
  PageId pid = frame->page_id();
  ASSERT_TRUE(pool.UnpinPage(pid, true).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());

  uint64_t reads_before = disk.stats().page_reads;
  ASSERT_TRUE(pool.FetchPage(pid).ok());
  EXPECT_EQ(disk.stats().page_reads, reads_before + 1);  // miss
  ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  ASSERT_TRUE(pool.FetchPage(pid).ok());
  EXPECT_EQ(disk.stats().page_reads, reads_before + 1);  // hit
  ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  FileId f = disk.CreateFile();
  PageId p0 = (*pool.NewPage(f))->page_id();
  ASSERT_TRUE(pool.UnpinPage(p0, true).ok());
  PageId p1 = (*pool.NewPage(f))->page_id();
  ASSERT_TRUE(pool.UnpinPage(p1, true).ok());
  // Touch p0 so p1 is LRU.
  ASSERT_TRUE(pool.FetchPage(p0).ok());
  ASSERT_TRUE(pool.UnpinPage(p0, false).ok());
  // New page evicts p1.
  PageId p2 = (*pool.NewPage(f))->page_id();
  ASSERT_TRUE(pool.UnpinPage(p2, true).ok());
  EXPECT_EQ(pool.stats().evictions, 1u);
  // Re-fetching p1 is a miss; p0 is still cached.
  uint64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.FetchPage(p0).ok());
  ASSERT_TRUE(pool.UnpinPage(p0, false).ok());
  EXPECT_EQ(pool.stats().misses, misses);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  FileId f = disk.CreateFile();
  PageFrame* f0 = *pool.NewPage(f);
  PageFrame* f1 = *pool.NewPage(f);
  (void)f0;
  (void)f1;
  // Both pinned; a third page cannot be placed.
  Result<PageFrame*> r = pool.NewPage(f);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, FailedNewPageLeavesNoOrphanPage) {
  // A NewPage refused for lack of a frame must not grow the file: a later
  // scan would read the orphan zero page, one page more than estimated.
  DiskManager disk;
  BufferPool pool(&disk, 2);
  FileId f = disk.CreateFile();
  ASSERT_TRUE(pool.NewPage(f).ok());
  ASSERT_TRUE(pool.NewPage(f).ok());
  ASSERT_EQ(disk.NumPages(f), 2u);
  EXPECT_EQ(pool.NewPage(f).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(disk.NumPages(f), 2u);
  EXPECT_EQ(disk.stats().pages_allocated, 2u);
  // Once a frame frees up, the next page gets the next page number.
  ASSERT_TRUE(pool.UnpinPage({f, 0}, true).ok());
  Result<PageFrame*> third = pool.NewPage(f);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->page_id().page_no, 2u);
  EXPECT_EQ(disk.NumPages(f), 3u);
}

TEST(BufferPoolTest, NewPageOnMissingFileFreesItsFrame) {
  DiskManager disk;
  BufferPool pool(&disk, 1);
  EXPECT_EQ(pool.NewPage(/*file_id=*/99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.NumCached(), 0u);
  EXPECT_EQ(pool.NumPinned(), 0u);
  FileId f = disk.CreateFile();
  EXPECT_TRUE(pool.NewPage(f).ok());  // the only frame is still usable
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  DiskManager disk;
  BufferPool pool(&disk, 1);
  FileId f = disk.CreateFile();
  PageFrame* frame = *pool.NewPage(f);
  PageId pid = frame->page_id();
  frame->data()[0] = 'X';
  ASSERT_TRUE(pool.UnpinPage(pid, true).ok());
  // Force eviction by allocating another page.
  PageId p2 = (*pool.NewPage(f))->page_id();
  ASSERT_TRUE(pool.UnpinPage(p2, true).ok());
  char buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage(pid, buf).ok());
  EXPECT_EQ(buf[0], 'X');
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
}

TEST(BufferPoolTest, DropFilePagesDiscardsWithoutWriteback) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  FileId f = disk.CreateFile();
  PageFrame* frame = *pool.NewPage(f);
  frame->data()[0] = 'Z';
  ASSERT_TRUE(pool.UnpinPage(frame->page_id(), true).ok());
  uint64_t writes = disk.stats().page_writes;
  ASSERT_TRUE(pool.DropFilePages(f).ok());
  EXPECT_EQ(disk.stats().page_writes, writes);
  EXPECT_EQ(pool.NumCached(), 0u);
}

TEST(BufferPoolTest, UnpinErrors) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  FileId f = disk.CreateFile();
  EXPECT_EQ(pool.UnpinPage({f, 7}, false).code(), StatusCode::kNotFound);
  PageId pid = (*pool.NewPage(f))->page_id();
  ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  EXPECT_EQ(pool.UnpinPage(pid, false).code(), StatusCode::kInternal);
}

// ------------------------------------------------------------ SlottedPage --

TEST(SlottedPageTest, InsertGetDelete) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  EXPECT_EQ(page.NumSlots(), 0u);

  uint16_t s0 = *page.Insert("hello");
  uint16_t s1 = *page.Insert("world!");
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(*page.Get(s0), "hello");
  EXPECT_EQ(*page.Get(s1), "world!");
  EXPECT_EQ(page.NumLive(), 2u);

  ASSERT_TRUE(page.Delete(s0).ok());
  EXPECT_FALSE(page.IsLive(s0));
  EXPECT_FALSE(page.Get(s0).ok());
  EXPECT_EQ(*page.Get(s1), "world!");  // s1 unaffected (stable slots)
  EXPECT_EQ(page.NumLive(), 1u);
  EXPECT_EQ(page.Delete(s0).code(), StatusCode::kNotFound);
}

TEST(SlottedPageTest, FillsUntilFull) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  std::string record(100, 'r');
  int inserted = 0;
  while (page.HasRoomFor(record.size())) {
    ASSERT_TRUE(page.Insert(record).ok());
    ++inserted;
  }
  // 100-byte records + 4-byte slots into ~4092 usable bytes: ~39 fit.
  EXPECT_GT(inserted, 30);
  EXPECT_LT(inserted, 45);
  Result<uint16_t> r = page.Insert(record);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(SlottedPageTest, OversizeRecordRejected) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  std::string record(kPageSize, 'x');
  EXPECT_EQ(page.Insert(record).status().code(), StatusCode::kInvalidArgument);
}

TEST(SlottedPageTest, EmptyRecordAllowed) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  uint16_t s = *page.Insert("");
  EXPECT_EQ(page.Get(s)->size(), 0u);
}

// --------------------------------------------------------------- HeapFile --

TEST(HeapFileTest, InsertGetAcrossPages) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  HeapFile heap = *HeapFile::Create(&pool);

  std::vector<Rid> rids;
  std::string record(500, 'a');
  for (int i = 0; i < 50; ++i) {
    record[0] = static_cast<char>('a' + i % 26);
    rids.push_back(*heap.Insert(record));
  }
  EXPECT_GT(heap.NumPages(), 5u);  // ~7 records per page

  HeapFile::PageCursor cursor(&heap);
  for (int i = 0; i < 50; ++i) {
    std::string_view got = *cursor.Read(rids[i]);
    EXPECT_EQ(got[0], static_cast<char>('a' + i % 26));
    EXPECT_EQ(got.size(), 500u);
  }
}

TEST(HeapFileTest, IteratorSeesAllLiveRecords) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  HeapFile heap = *HeapFile::Create(&pool);
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) {
    rids.push_back(*heap.Insert("rec" + std::to_string(i)));
  }
  ASSERT_TRUE(heap.Delete(rids[3]).ok());
  ASSERT_TRUE(heap.Delete(rids[17]).ok());

  HeapFile::PageCursor cursor(&heap);
  ASSERT_TRUE(cursor.Rewind().ok());
  Rid rid;
  std::string_view record;
  int count = 0;
  while (*cursor.Next(&rid, &record)) {
    EXPECT_NE(record, "rec3");
    EXPECT_NE(record, "rec17");
    ++count;
  }
  EXPECT_EQ(count, 28);

  ASSERT_TRUE(cursor.Rewind().ok());
  count = 0;
  while (*cursor.Next(&rid, &record)) ++count;
  EXPECT_EQ(count, 28);
}

TEST(HeapFileTest, GetDeletedRecordFails) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  HeapFile heap = *HeapFile::Create(&pool);
  Rid rid = *heap.Insert("x");
  ASSERT_TRUE(heap.Delete(rid).ok());
  {
    HeapFile::PageCursor cursor(&heap);
    EXPECT_FALSE(cursor.Read(rid).ok());
  }
  EXPECT_FALSE(heap.Delete(rid).ok());
}

TEST(HeapFileTest, ScanCountsOnePhysicalReadPerPage) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  HeapFile heap = *HeapFile::Create(&pool);
  std::string record(400, 'b');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Insert(record).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  disk.ResetStats();

  HeapFile::PageCursor cursor(&heap);
  ASSERT_TRUE(cursor.Rewind().ok());
  Rid rid;
  std::string_view rec;
  while (*cursor.Next(&rid, &rec)) {
  }
  EXPECT_EQ(disk.stats().page_reads, heap.NumPages());
}

}  // namespace
}  // namespace relopt
