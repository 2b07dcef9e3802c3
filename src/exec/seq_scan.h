// Sequential scan over a base table's heap, run as one worker of n: a
// MorselSource hands out page-range morsels, and each worker drains morsels
// until the source is exhausted (dynamic load balancing).
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>

#include "exec/executor.h"
#include "exec/gather.h"
#include "storage/heap_file.h"

namespace relopt {

/// \brief Thread-safe dispenser of page ranges ("morsels") over one heap.
///
/// The page count is snapshotted at Reset(), so a scan covers exactly the
/// pages that existed when it started. Morsels are handed out in page order.
class MorselSource : public ParallelSharedState {
 public:
  /// Pages per morsel: large enough to amortize dispatch, small enough that
  /// the tail of a scan still spreads over all workers.
  static constexpr PageNo kMorselPages = 4;

  MorselSource(size_t num_workers, const HeapFile* heap)
      : ParallelSharedState(num_workers), heap_(heap) {}

  /// Snapshots the heap size and rewinds the cursor. Single-threaded.
  void Reset() override {
    num_pages_ = static_cast<PageNo>(heap_->NumPages());
    next_.store(0, std::memory_order_relaxed);
  }

  /// Claims the next morsel; false when the heap is exhausted.
  bool NextMorsel(PageNo* begin, PageNo* end) {
    PageNo b = next_.fetch_add(kMorselPages, std::memory_order_relaxed);
    if (b >= num_pages_) return false;
    *begin = b;
    *end = std::min<PageNo>(b + kMorselPages, num_pages_);
    return true;
  }

  const HeapFile* heap() const { return heap_; }

 private:
  const HeapFile* heap_;
  std::atomic<PageNo> next_{0};
  PageNo num_pages_ = 0;
};

/// \brief One worker's share of a sequential scan.
///
/// Walks its claimed morsels through a HeapFile::PageCursor (pin held
/// across calls, one pool access per page) and deserializes records straight
/// from the pinned frame, with no per-record byte copy. The one-worker scan
/// claims every morsel, so it returns the rows in page order.
class SeqScanExecutor : public Executor {
 public:
  /// `schema` is the alias-qualified output schema: the table columns the
  /// plan reads, in table order (ScanColumns), of which the scan decodes
  /// only those, and, if it ends with the binder's `#rid` column, each
  /// row's packed RID (Rid::Pack). A null `source` makes
  /// the one-worker scan, which owns a source over `table`'s heap and
  /// rewinds it in every Init (nested-loop inners re-scan this way);
  /// otherwise `source` is shared with the sibling workers and must outlive
  /// the executor.
  SeqScanExecutor(ExecContext* ctx, Schema schema, TableInfo* table,
                  std::shared_ptr<MorselSource> source = nullptr);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  /// The cursor keeps the current page pinned between calls.
  void Abandon() override { (void)cursor_.Close(); }

 private:
  std::shared_ptr<MorselSource> source_;
  HeapFile::PageCursor cursor_;
  const size_t num_fields_;  ///< the table's columns
  Result<ScanColumns> columns_;
  bool done_ = false;  ///< the source has no more morsels
};

}  // namespace relopt
