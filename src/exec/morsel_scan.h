// Morsel-driven parallel table scan: a shared MorselSource hands out
// page-range morsels over a heap file; one MorselScanExecutor per worker
// drains morsels until the source is exhausted (dynamic load balancing).
#pragma once

#include <atomic>

#include "exec/executor.h"
#include "exec/gather.h"
#include "storage/heap_file.h"

namespace relopt {

/// \brief Thread-safe dispenser of page ranges ("morsels") over one heap.
///
/// The page count is snapshotted at Reset() (called by the Gather on the
/// coordinating thread before workers launch), so a scan covers exactly the
/// pages that existed when the query started.
class MorselSource : public ParallelSharedState {
 public:
  /// Pages per morsel: large enough to amortize dispatch, small enough that
  /// the tail of a scan still spreads over all workers.
  static constexpr PageNo kDefaultMorselPages = 4;

  explicit MorselSource(const HeapFile* heap, PageNo morsel_pages = kDefaultMorselPages)
      : heap_(heap), morsel_pages_(morsel_pages) {}

  /// Snapshots the heap size and rewinds the cursor. Single-threaded.
  void Reset() override {
    num_pages_ = static_cast<PageNo>(heap_->NumPages());
    next_.store(0, std::memory_order_relaxed);
  }

  /// Claims the next morsel; false when the heap is exhausted.
  bool NextMorsel(PageNo* begin, PageNo* end) {
    PageNo b = next_.fetch_add(morsel_pages_, std::memory_order_relaxed);
    if (b >= num_pages_) return false;
    *begin = b;
    *end = std::min<PageNo>(b + morsel_pages_, num_pages_);
    return true;
  }

  const HeapFile* heap() const { return heap_; }

 private:
  const HeapFile* heap_;
  const PageNo morsel_pages_;
  std::atomic<PageNo> next_{0};
  PageNo num_pages_ = 0;
};

/// \brief One worker's share of a parallel sequential scan.
///
/// Walks its claimed morsels a page at a time through a HeapFile::PageCursor
/// (pin held across calls, shared latch within one, one pool access per
/// page) and
/// deserializes records straight from the pinned frame — no intermediate
/// per-page tuple buffer and no per-record byte copy.
class MorselScanExecutor : public Executor {
 public:
  /// `schema` is the alias-qualified output schema; `source` is shared with
  /// the sibling workers and must outlive the executor.
  MorselScanExecutor(ExecContext* ctx, Schema schema, MorselSource* source);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  /// The cursor keeps the current page pinned between calls (and latched
  /// after an error mid-batch); release it on the worker thread that
  /// acquired it.
  void Abandon() override { (void)cursor_.Close(); }

 private:
  /// Next live record across pages and morsels; false once the source is
  /// exhausted. The view stays valid until the next call.
  Result<bool> NextRecord(Rid* rid, std::string_view* record);

  MorselSource* source_;
  HeapFile::PageCursor cursor_;
  PageNo cur_page_ = 0;
  PageNo end_page_ = 0;  ///< current morsel is [cur_page_, end_page_)
  bool done_ = false;
};

}  // namespace relopt
