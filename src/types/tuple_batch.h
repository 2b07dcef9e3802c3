// TupleBatch: a column of rows moved through the executor tree at once.
//
// The batch owns a fixed-capacity vector of reusable Tuples plus a selection
// vector of indices into it. Operators that produce rows append into slots
// recycled across batches (clear-and-refill, no per-row vector allocation);
// operators that eliminate rows (Filter, the joins, IndexScan, Limit) compact
// the selection vector and leave the row storage untouched. Consumers iterate the selection only.
#pragma once

#include <cstdint>
#include <vector>

#include "types/tuple.h"

namespace relopt {

/// \brief A batch of rows with a selection vector.
///
/// Invariants: `selection()` holds strictly increasing indices < NumRows();
/// freshly appended rows are selected. Row storage is reused across Clear()
/// calls, so a steady-state pipeline allocates nothing per batch.
class TupleBatch {
 public:
  /// Default rows per batch; large enough to amortize per-call overhead,
  /// small enough to stay cache-resident for narrow tuples.
  static constexpr size_t kDefaultCapacity = 1024;

  explicit TupleBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    sel_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }

  /// Re-caps how many rows fit before Full(). LIMIT shrinks the batch it
  /// hands its child to the rows it still needs, so a producer that does
  /// real work per row (external-sort merge, scan) stops at the limit
  /// instead of filling a whole batch that gets truncated — keeping page
  /// I/O independent of the batch size. Shrinking below NumRows() only
  /// stops further appends; existing rows stay.
  void SetCapacity(size_t capacity) { capacity_ = capacity == 0 ? 1 : capacity; }
  /// Rows physically stored (selected or not).
  size_t NumRows() const { return num_rows_; }
  /// Rows surviving the selection vector.
  size_t NumSelected() const { return sel_.size(); }
  bool Empty() const { return sel_.empty(); }
  bool Full() const { return num_rows_ >= capacity_; }

  /// Forgets all rows and the selection; per-row storage is kept for reuse.
  void Clear() {
    num_rows_ = 0;
    sel_.clear();
  }

  /// Appends (and selects) one row slot, returning the reusable Tuple to
  /// fill. The slot is already cleared. Caller must check !Full() first.
  Tuple* AppendRow() {
    if (num_rows_ == rows_.size()) rows_.emplace_back();
    Tuple* t = &rows_[num_rows_];
    t->Clear();
    sel_.push_back(static_cast<uint32_t>(num_rows_));
    ++num_rows_;
    return t;
  }

  /// Appends (and selects) a row by move — the Gather adoption path.
  void AppendTuple(Tuple&& t) {
    if (num_rows_ == rows_.size()) rows_.emplace_back();
    rows_[num_rows_] = std::move(t);
    sel_.push_back(static_cast<uint32_t>(num_rows_));
    ++num_rows_;
  }

  const Tuple& RowAt(size_t i) const { return rows_[i]; }
  Tuple* MutableRowAt(size_t i) { return &rows_[i]; }
  /// The k-th *selected* row.
  const Tuple& SelectedRow(size_t k) const { return rows_[sel_[k]]; }

  /// Selection vector: ascending indices into the row storage.
  const std::vector<uint32_t>& selection() const { return sel_; }
  /// Mutable selection for compacting operators (Filter). Entries must stay
  /// ascending indices into the existing rows.
  std::vector<uint32_t>* mutable_selection() { return &sel_; }

  /// Keeps only the first `n` selected rows (LIMIT at a batch boundary).
  void TruncateSelection(size_t n) {
    if (n < sel_.size()) sel_.resize(n);
  }

 private:
  size_t capacity_;
  size_t num_rows_ = 0;
  std::vector<Tuple> rows_;  ///< grows to capacity once, then recycled
  std::vector<uint32_t> sel_;
};

}  // namespace relopt
