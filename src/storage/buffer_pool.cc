#include "storage/buffer_pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "util/logging.h"
#include "util/metrics.h"

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace relopt {

namespace {
/// Locks `mu`, counting contended acquisitions (pool latch waits) in the
/// global metrics registry. The uncontended fast path is one try_lock.
std::unique_lock<std::mutex> LockPoolMutex(std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    EngineMetrics::Get().pool_latch_waits->Add(1);
    lock.lock();
  }
  return lock;
}
}  // namespace

void BufferPool::ArenaUnmapper::operator()(char* base) const { munmap(base, bytes); }

BufferPool::Arena BufferPool::MapArena(size_t pages) {
  // An anonymous mapping rather than new[]: the kernel backs a page on first
  // touch, so frames never used add no RSS, and the arena stays out of
  // malloc's heap. Through malloc, freeing one pool's arena raises glibc's
  // mmap threshold, the next pool's arena then comes from the heap, and five
  // databases built one after another with 512-page pools peaked 9 MiB
  // higher.
  const size_t bytes = std::max<size_t>(pages, 1) * kPageSize;
  void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  return Arena(static_cast<char*>(base), ArenaUnmapper{bytes});
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk),
      capacity_(capacity),
      arena_(MapArena(capacity)),
      frames_(new PageFrame[capacity]) {
  RELOPT_DCHECK(capacity >= 1 && capacity < kNoFrame);
  // At most half full, so linear probes stay short.
  size_t slots = std::bit_ceil(2 * std::max<size_t>(capacity, 1));
  table_.assign(slots, kNoFrame);
  table_shift_ = 64 - std::countr_zero(slots);
  free_.reserve(capacity);
  for (size_t i = capacity; i-- > 0;) {
    frames_[i].data_ = arena_.get() + i * kPageSize;
    free_.push_back(static_cast<uint32_t>(i));
  }
}

BufferPool::~BufferPool() {
  Status st = FlushAll();
  if (!st.ok()) {
    RELOPT_LOG(kError) << "FlushAll on destruction failed: " << st.ToString();
  }
}

// --- page table --------------------------------------------------------------

size_t BufferPool::HomeSlot(PageId page_id) const {
  uint64_t key = (static_cast<uint64_t>(page_id.file_id) << 32) | page_id.page_no;
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> table_shift_);
}

uint32_t BufferPool::FindLocked(PageId page_id) const {
  const size_t mask = table_.size() - 1;
  for (size_t s = HomeSlot(page_id);; s = (s + 1) & mask) {
    uint32_t f = table_[s];
    if (f == kNoFrame || frames_[f].page_id_ == page_id) return f;
  }
}

void BufferPool::TableInsertLocked(uint32_t frame) {
  const size_t mask = table_.size() - 1;
  size_t s = HomeSlot(frames_[frame].page_id_);
  while (table_[s] != kNoFrame) s = (s + 1) & mask;
  table_[s] = frame;
}

void BufferPool::TableEraseLocked(uint32_t frame) {
  const size_t mask = table_.size() - 1;
  size_t hole = HomeSlot(frames_[frame].page_id_);
  while (table_[hole] != frame) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole whenever the hole lies between their home slot and where they sit.
  for (size_t s = (hole + 1) & mask; table_[s] != kNoFrame; s = (s + 1) & mask) {
    size_t home = HomeSlot(frames_[table_[s]].page_id_);
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      table_[hole] = table_[s];
      hole = s;
    }
  }
  table_[hole] = kNoFrame;
}

// --- LRU list ----------------------------------------------------------------

void BufferPool::LruUnlinkLocked(uint32_t frame) {
  PageFrame& f = frames_[frame];
  (f.lru_prev_ == kNoFrame ? lru_head_ : frames_[f.lru_prev_].lru_next_) = f.lru_next_;
  (f.lru_next_ == kNoFrame ? lru_tail_ : frames_[f.lru_next_].lru_prev_) = f.lru_prev_;
}

void BufferPool::LruPushFrontLocked(uint32_t frame) {
  PageFrame& f = frames_[frame];
  f.lru_prev_ = kNoFrame;
  f.lru_next_ = lru_head_;
  (lru_head_ == kNoFrame ? lru_tail_ : frames_[lru_head_].lru_prev_) = frame;
  lru_head_ = frame;
}

// --- frame life cycle --------------------------------------------------------

Status BufferPool::WriteBackLocked(PageFrame& frame) {
  // A dirty frame still loading is a NewPage being zeroed; its disk page is
  // already zero.
  if (!frame.dirty_ || frame.load_state_.load(std::memory_order_acquire) != PageFrame::kReady) {
    return Status::OK();
  }
  RELOPT_RETURN_NOT_OK(disk_->WritePage(frame.page_id_, frame.data_));
  frame.dirty_ = false;
  return Status::OK();
}

void BufferPool::DetachLocked(uint32_t frame) {
  TableEraseLocked(frame);
  LruUnlinkLocked(frame);
  frames_[frame].page_id_ = PageId{};
  frames_[frame].dirty_ = false;
}

Status BufferPool::EvictLocked(uint32_t frame) {
  PageFrame& f = frames_[frame];
  if (f.dirty_) {
    // Under the mutex, so no thread can fault a stale copy of the page
    // before the write lands.
    RELOPT_RETURN_NOT_OK(WriteBackLocked(f));
    dirty_writebacks_.fetch_add(1, std::memory_order_relaxed);
    EngineMetrics::Get().pool_dirty_writebacks->Add(1);
  }
  DetachLocked(frame);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::Get().pool_evictions->Add(1);
  return Status::OK();
}

Result<uint32_t> BufferPool::TakeFrameLocked() {
  if (!free_.empty()) {
    uint32_t frame = free_.back();
    free_.pop_back();
    return frame;
  }
  for (uint32_t f = lru_tail_; f != kNoFrame; f = frames_[f].lru_prev_) {
    if (frames_[f].pin_count_ == 0) {
      RELOPT_RETURN_NOT_OK(EvictLocked(f));
      return f;
    }
  }
  return Status::ResourceExhausted("buffer pool full: all " + std::to_string(capacity_) +
                                   " frames pinned");
}

void BufferPool::PublishLocked(uint32_t frame, PageId page_id) {
  PageFrame& f = frames_[frame];
  f.page_id_ = page_id;
  f.pin_count_ = 1;
  f.load_state_.store(PageFrame::kLoading, std::memory_order_relaxed);
  TableInsertLocked(frame);
  LruPushFrontLocked(frame);
}

void BufferPool::UnpinDetachedLocked(uint32_t frame) {
  if (--frames_[frame].pin_count_ == 0) free_.push_back(frame);
}

void BufferPool::FinishLoad(uint32_t frame, const Status& loaded) {
  PageFrame& f = frames_[frame];
  if (loaded.ok()) {
#if defined(__SANITIZE_THREAD__)
    // The latch orders accesses to one page, so to the thread sanitizer each
    // page the frame holds gets a new latch, as when every fault allocated
    // its own frame. Otherwise its lock-order graph would chain unrelated
    // pages that reused this frame into false cycles. Nobody holds the latch
    // of a frame being loaded.
    __tsan_mutex_destroy(&f.latch_, 0);
#endif
    f.load_state_.store(PageFrame::kReady, std::memory_order_release);
    f.load_state_.notify_all();
    return;
  }
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  DetachLocked(frame);
  // Stored under the mutex: once the last pin drops the frame is free, and a
  // later claim must not be overwritten.
  f.load_state_.store(PageFrame::kFailed, std::memory_order_release);
  f.load_state_.notify_all();
  UnpinDetachedLocked(frame);
}

bool BufferPool::WaitForLoad(const PageFrame& frame) {
  // Returns once the state is no longer kLoading. The caller's pin keeps the
  // frame from being claimed again, so the state cannot go back to kLoading.
  frame.load_state_.wait(PageFrame::kLoading, std::memory_order_acquire);
  return frame.load_state_.load(std::memory_order_acquire) == PageFrame::kReady;
}

// --- public API --------------------------------------------------------------

Result<PageFrame*> BufferPool::FetchPage(PageId page_id) {
  // Counted after the mutex is released: the counters are atomics.
  auto count = [this](bool hit) {
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    (hit ? EngineMetrics::Get().pool_hits : EngineMetrics::Get().pool_misses)->Add(1);
    ThreadIoCounters& local = LocalIoCounters();
    (hit ? local.pool_hits : local.pool_misses)++;
  };
  while (true) {
    std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
    uint32_t frame = FindLocked(page_id);
    if (frame != kNoFrame) {
      frames_[frame].pin_count_++;
      LruUnlinkLocked(frame);
      LruPushFrontLocked(frame);
      lock.unlock();
      count(/*hit=*/true);
      if (WaitForLoad(frames_[frame])) return &frames_[frame];
      // The loader's read failed and it unmapped the frame: drop the pin and
      // fault the page again, which returns the read's own error.
      lock = LockPoolMutex(mu_);
      UnpinDetachedLocked(frame);
      continue;
    }
    Result<uint32_t> claimed = TakeFrameLocked();
    if (claimed.ok()) PublishLocked(*claimed, page_id);
    lock.unlock();
    count(/*hit=*/false);
    RELOPT_RETURN_NOT_OK(claimed.status());
    Status loaded = disk_->ReadPage(page_id, frames_[*claimed].data_);
    FinishLoad(*claimed, loaded);
    RELOPT_RETURN_NOT_OK(loaded);
    return &frames_[*claimed];
  }
}

Result<PageFrame*> BufferPool::NewPage(FileId file_id) {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  // Claim the frame before the file grows, so a full pool leaves no orphan
  // page on disk. The page is allocated under the mutex so no fetch can see
  // it on disk before its frame is published.
  RELOPT_ASSIGN_OR_RETURN(uint32_t frame, TakeFrameLocked());
  Result<PageNo> page_no = disk_->AllocatePage(file_id);
  if (!page_no.ok()) {
    free_.push_back(frame);
    return page_no.status();
  }
  PublishLocked(frame, PageId{file_id, *page_no});
  frames_[frame].dirty_ = true;  // a new page must reach disk even if untouched
  lock.unlock();
  std::memset(frames_[frame].data_, 0, kPageSize);
  FinishLoad(frame, Status::OK());
  return &frames_[frame];
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  uint32_t frame = FindLocked(page_id);
  if (frame == kNoFrame) {
    return Status::NotFound("unpin of uncached page " + page_id.ToString());
  }
  PageFrame& f = frames_[frame];
  if (f.pin_count_ <= 0) {
    return Status::Internal("unpin of unpinned page " + page_id.ToString());
  }
  f.pin_count_--;
  f.dirty_ = f.dirty_ || dirty;
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  uint32_t frame = FindLocked(page_id);
  if (frame == kNoFrame) return Status::OK();
  return WriteBackLocked(frames_[frame]);
}

Status BufferPool::FlushAll() {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  for (size_t i = 0; i < capacity_; ++i) {
    if (frames_[i].page_id_.IsValid()) RELOPT_RETURN_NOT_OK(WriteBackLocked(frames_[i]));
  }
  return Status::OK();
}

Status BufferPool::DropFilePages(FileId file_id) {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  auto in_file = [&](const PageFrame& f) {
    return f.page_id_.IsValid() && f.page_id_.file_id == file_id;
  };
  for (size_t i = 0; i < capacity_; ++i) {
    if (in_file(frames_[i]) && frames_[i].pin_count_ != 0) {
      return Status::Internal("dropping pages of file " + std::to_string(file_id) +
                              " while page " + frames_[i].page_id_.ToString() + " is pinned");
    }
  }
  for (uint32_t i = 0; i < capacity_; ++i) {
    if (!in_file(frames_[i])) continue;
    DetachLocked(i);
    free_.push_back(i);
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  for (uint32_t i = 0; i < capacity_; ++i) {
    if (!frames_[i].page_id_.IsValid() || frames_[i].pin_count_ != 0) continue;
    RELOPT_RETURN_NOT_OK(EvictLocked(i));
    free_.push_back(i);
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.dirty_writebacks = dirty_writebacks_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  dirty_writebacks_.store(0, std::memory_order_relaxed);
}

size_t BufferPool::NumCached() const {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  return std::count_if(frames_.get(), frames_.get() + capacity_,
                       [](const PageFrame& f) { return f.page_id_.IsValid(); });
}

size_t BufferPool::NumPinned() const {
  std::unique_lock<std::mutex> lock = LockPoolMutex(mu_);
  return std::count_if(frames_.get(), frames_.get() + capacity_,
                       [](const PageFrame& f) { return f.pin_count_ > 0; });
}

}  // namespace relopt
