// BufferPool: fixed-size page cache with LRU replacement and hit/miss stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/io_counters.h"
#include "storage/page.h"
#include "util/result.h"

namespace relopt {

/// Cache effectiveness counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;   // page faults -> disk reads
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

/// \brief A frame handed out by the buffer pool. Pin with Fetch/New, unpin
/// when done; the pool evicts only unpinned frames (LRU).
///
/// Concurrency: a pin guarantees the frame stays resident, but not that its
/// bytes are stable — concurrent pinners of the same page must take the
/// frame `latch()` (shared to read page bytes, exclusive to mutate them).
/// Latch ordering rule: acquire a frame latch only *after* the pool call
/// returns (never while inside the pool), and release it before Unpin.
class PageFrame {
 public:
  PageId page_id() const { return page_id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Per-frame content latch (see class comment for the ordering rule).
  std::shared_mutex& latch() const { return latch_; }

 private:
  friend class BufferPool;
  /// Progress of the disk read (or zero fill) that fills a claimed frame.
  enum LoadState : int { kLoading, kReady, kFailed };

  char* data_ = nullptr;  ///< kPageSize bytes in the pool's arena
  // The fields below are guarded by the pool mutex.
  PageId page_id_;  ///< invalid while the frame is free or its load failed
  int pin_count_ = 0;
  bool dirty_ = false;
  uint32_t lru_prev_ = 0;  ///< towards the most recently used frame
  uint32_t lru_next_ = 0;  ///< towards the least recently used frame
  /// Written under the pool mutex when the frame is claimed; the loader then
  /// stores kReady or kFailed, and pinners that found it kLoading wait on it
  /// outside the mutex.
  std::atomic<int> load_state_{kReady};
  mutable std::shared_mutex latch_;
};

/// \brief Page cache in front of the DiskManager.
///
/// The pool is the engine's memory budget: join and sort operators size their
/// in-memory working sets from `capacity()`, so varying the pool capacity
/// reproduces the buffer-size experiments.
///
/// Thread-safe. Every frame and its 4 KiB buffer are allocated once, at
/// construction. One pool mutex guards only bookkeeping: the page table, the
/// LRU list, the free list, pin counts and dirty bits. Page bytes never move
/// under it except for a dirty victim's write-back. A miss claims a frame and
/// publishes it in the page table as loading, then reads the page after
/// releasing the mutex; a concurrent fetch of that page counts a hit and
/// waits outside the mutex until the frame is ready. Hit/miss/eviction
/// counters are atomic so `stats()` is a lock-free snapshot. Pinned frames
/// are never evicted, so readers holding a pin may access frame bytes outside
/// the mutex (with the frame latch when a concurrent writer is possible).
class BufferPool {
 public:
  /// `capacity` is in pages.
  BufferPool(DiskManager* disk, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches a page, pinning it. Miss -> one disk read (+ possible dirty
  /// write-back on eviction). Fails with ResourceExhausted if every frame is
  /// pinned.
  Result<PageFrame*> FetchPage(PageId page_id);

  /// Allocates a new page in `file_id` and returns it pinned and zeroed.
  /// Fails with ResourceExhausted, leaving the file unchanged, if every frame
  /// is pinned.
  Result<PageFrame*> NewPage(FileId file_id);

  /// Unpins; `dirty` marks the frame for write-back on eviction/flush.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes back a page if dirty. No-op if not cached.
  Status FlushPage(PageId page_id);

  /// Writes back all dirty pages (does not evict).
  Status FlushAll();

  /// Drops all unpinned frames (writing back dirty ones). For tests and for
  /// resetting cache state between benchmark runs.
  Status EvictAll();

  /// Discards every cached frame of `file_id` WITHOUT write-back. Call when
  /// deleting a file; frames must be unpinned.
  Status DropFilePages(FileId file_id);

  size_t capacity() const { return capacity_; }
  /// Snapshot of the cache counters (atomic reads; safe while threads run).
  BufferPoolStats stats() const;
  void ResetStats();
  DiskManager* disk() const { return disk_; }

  /// Number of frames currently cached (for tests).
  size_t NumCached() const;
  /// Number of frames currently pinned (for tests).
  size_t NumPinned() const;

 private:
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// Unmaps the frame arena.
  struct ArenaUnmapper {
    size_t bytes = 0;
    void operator()(char* base) const;
  };
  using Arena = std::unique_ptr<char, ArenaUnmapper>;
  /// Maps `pages` (at least one) pages of zero-on-first-touch memory.
  static Arena MapArena(size_t pages);

  /// Page-table slot where a probe for `page_id` starts.
  size_t HomeSlot(PageId page_id) const;
  /// Page-table lookup; kNoFrame if `page_id` is not cached. Requires `mu_`.
  uint32_t FindLocked(PageId page_id) const;
  /// Requires `mu_`; the frame's `page_id_` is set and not yet in the table.
  void TableInsertLocked(uint32_t frame);
  /// Requires `mu_`; the frame's `page_id_` is still set.
  void TableEraseLocked(uint32_t frame);

  /// LRU list maintenance (head = most recent). Require `mu_`.
  void LruUnlinkLocked(uint32_t frame);
  void LruPushFrontLocked(uint32_t frame);

  /// Returns a clean frame in neither the page table nor the LRU list: a free
  /// one, else the least recently used unpinned frame, evicted (and written
  /// back if dirty). ResourceExhausted if every frame is pinned. Requires
  /// `mu_`.
  Result<uint32_t> TakeFrameLocked();
  /// Writes back if dirty, then removes the frame from the page table and
  /// the LRU list; the caller reuses or frees it. Requires `mu_`, unpinned.
  Status EvictLocked(uint32_t frame);
  /// Removes a cached frame from the page table and the LRU list and clears
  /// its page id and dirty bit, without write-back. Requires `mu_`.
  void DetachLocked(uint32_t frame);
  /// Maps `page_id` to a frame from TakeFrameLocked, pinned once, most
  /// recent in the LRU list and loading. Requires `mu_`.
  void PublishLocked(uint32_t frame, PageId page_id);
  /// Writes back a dirty, fully loaded frame. Requires `mu_`.
  Status WriteBackLocked(PageFrame& frame);
  /// Drops one pin on a frame already detached by a failed load; the last
  /// pin returns it to the free list. Requires `mu_`.
  void UnpinDetachedLocked(uint32_t frame);

  /// Marks a claimed frame ready, or detaches it if the load failed.
  void FinishLoad(uint32_t frame, const Status& loaded);
  /// Blocks until the frame's load finishes; false if it failed.
  static bool WaitForLoad(const PageFrame& frame);

  DiskManager* disk_;
  size_t capacity_;
  Arena arena_;                          ///< capacity_ pages, backed on first touch
  std::unique_ptr<PageFrame[]> frames_;  ///< capacity_ frames over the arena

  /// Guards table_, the LRU ends, free_ and every frame's bookkeeping fields.
  mutable std::mutex mu_;
  /// Open-addressing (linear probing) page table: each slot holds the index
  /// of a cached frame, or kNoFrame. The key is the frame's `page_id_`.
  std::vector<uint32_t> table_;
  int table_shift_ = 0;  ///< 64 - log2(table_.size())
  uint32_t lru_head_ = kNoFrame;
  uint32_t lru_tail_ = kNoFrame;
  std::vector<uint32_t> free_;  ///< unused frames; never holds more than capacity_

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> dirty_writebacks_{0};
};

/// RAII pin guard: unpins on destruction.
class PinGuard {
 public:
  PinGuard(BufferPool* pool, PageFrame* frame, bool dirty = false)
      : pool_(pool), frame_(frame), dirty_(dirty) {}
  ~PinGuard() {
    if (pool_ && frame_) pool_->UnpinPage(frame_->page_id(), dirty_);
  }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;
  PinGuard(PinGuard&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_), dirty_(other.dirty_) {
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }

  void MarkDirty() { dirty_ = true; }
  PageFrame* frame() const { return frame_; }

 private:
  BufferPool* pool_;
  PageFrame* frame_;
  bool dirty_;
};

}  // namespace relopt
