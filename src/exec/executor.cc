#include "exec/executor.h"

#include <algorithm>

#include "storage/io_counters.h"
#include "util/thread_pool.h"

namespace relopt {

namespace {

/// The calling thread's attribution frame: which OperatorStats is charged for
/// I/O on this thread, and the thread-local counter values at the last
/// switch. Thread-local so concurrent workers never race on checkpoints.
struct ThreadAttribution {
  OperatorStats* owner = nullptr;
  ThreadIoCounters checkpoint;
};

ThreadAttribution& LocalAttribution() {
  thread_local ThreadAttribution attribution;
  return attribution;
}

}  // namespace

void OperatorStats::Merge(const OperatorStats& other) {
  init_calls += other.init_calls;
  rows_produced += other.rows_produced;
  batches_produced += other.batches_produced;
  wall_nanos += other.wall_nanos;
  if (other.started) {
    first_start_nanos =
        started ? std::min(first_start_nanos, other.first_start_nanos) : other.first_start_nanos;
    started = true;
  }
  page_reads += other.page_reads;
  page_writes += other.page_writes;
  pool_hits += other.pool_hits;
  pool_misses += other.pool_misses;
}

ExecContext::ExecContext(Catalog* catalog, BufferPool* pool, ThreadPool* thread_pool,
                         size_t parallelism, size_t batch_size)
    : catalog_(catalog),
      pool_(pool),
      thread_pool_(thread_pool),
      parallelism_(thread_pool == nullptr ? 1 : std::max<size_t>(1, parallelism)),
      batch_size_(std::max<size_t>(1, batch_size)),
      epoch_nanos_(MonotonicNanos()) {}

ExecContext::~ExecContext() {
  for (FileId id : scratch_files_) {
    (void)pool_->DropFilePages(id);
    pool_->disk()->DeleteFile(id);
  }
}

OperatorStats* ExecContext::SwitchAttribution(OperatorStats* next) {
  ThreadAttribution& attr = LocalAttribution();
  const ThreadIoCounters& now = LocalIoCounters();
  if (attr.owner != nullptr) {
    attr.owner->page_reads += now.page_reads - attr.checkpoint.page_reads;
    attr.owner->page_writes += now.page_writes - attr.checkpoint.page_writes;
    attr.owner->pool_hits += now.pool_hits - attr.checkpoint.pool_hits;
    attr.owner->pool_misses += now.pool_misses - attr.checkpoint.pool_misses;
  }
  attr.checkpoint = now;
  OperatorStats* prev = attr.owner;
  attr.owner = next;
  return prev;
}

Result<HeapFile> ExecContext::CreateScratchHeap() {
  RELOPT_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(pool_));
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_files_.push_back(heap.file_id());
  return heap;
}

void ExecContext::ReleaseScratchHeap(FileId file_id) {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    for (auto it = scratch_files_.begin(); it != scratch_files_.end(); ++it) {
      if (*it == file_id) {
        scratch_files_.erase(it);
        break;
      }
    }
  }
  (void)pool_->DropFilePages(file_id);
  pool_->disk()->DeleteFile(file_id);
}

size_t ExecContext::operator_memory_pages() const {
  size_t cap = pool_->capacity();
  // Reserve a handful of frames for concurrently pinned I/O pages.
  return cap > 8 ? cap - 8 : 1;
}

}  // namespace relopt
