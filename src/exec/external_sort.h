// External merge sort with run generation and multi-pass merging.
#pragma once

#include <memory>
#include <span>

#include "exec/executor.h"
#include "expr/vector_eval.h"

namespace relopt {

/// One sort key: an expression over the input row plus direction.
struct SortKeySpec {
  const Expression* expr;
  bool desc;
};

/// \brief Sorts its input by encoded keys (types/key_codec.h; descending keys
/// are byte-inverted, which is order-reversing because the encodings are
/// prefix-free).
///
/// Runs are generated up to the operator memory budget and spilled to scratch
/// heaps; more runs than the merge fan-in trigger extra merge passes. All
/// spill I/O goes through the buffer pool, so measured cost follows the
/// classic 2·P·(1 + ceil(log_F(runs))) shape. An input that fits in memory
/// sorts without any I/O.
class ExternalSortExecutor : public Executor {
 public:
  ExternalSortExecutor(ExecContext* ctx, ExecutorPtr child, std::vector<SortKeySpec> keys);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  /// Number of spilled runs in the last Init (after run generation, before
  /// merging); 0 means fully in-memory. For tests/benches.
  size_t num_spilled_runs() const { return num_spilled_runs_; }
  /// Merge passes performed (0 when in-memory or single run).
  size_t merge_passes() const { return merge_passes_; }

 private:
  /// Sorted (key, tuple) pair held during run generation / in-memory sort.
  struct Item {
    std::string key;
    Tuple tuple;
  };

  /// One sorted run being merged, and its current record. The cursor reads
  /// a page at a time into its own memory, so a merge pins no run page.
  struct RunCursor {
    std::unique_ptr<HeapFile::PageCursor> pages;
    std::string key;
    Tuple tuple;
    bool exhausted = false;
  };

  Status FlushRun(std::vector<Item>* items);
  /// Opens one cursor per run at its first record.
  Status OpenCursors(std::span<const HeapFile> runs, std::vector<RunCursor>* cursors);
  Status AdvanceCursor(RunCursor* cursor);
  /// The unexhausted cursor with the smallest key; null once all are done.
  static RunCursor* MinCursor(std::vector<RunCursor>* cursors);
  /// Merges `inputs` (scratch heaps holding sorted records) into one new run.
  Result<HeapFile> MergeRuns(std::span<const HeapFile> inputs);

  ExecutorPtr child_;
  std::vector<SortKeySpec> keys_;
  KeyEncoder key_encoder_;  ///< compiled sort-key encoding

  // In-memory path.
  std::vector<Item> memory_items_;
  size_t memory_pos_ = 0;
  bool in_memory_ = false;

  // External path: the final run set (<= merge fan-in) merged lazily in
  // NextBatch() via per-run cursors.
  std::vector<HeapFile> runs_;
  std::vector<RunCursor> cursors_;
  size_t num_cols_ = 0;
  size_t num_spilled_runs_ = 0;
  size_t merge_passes_ = 0;
};

}  // namespace relopt
