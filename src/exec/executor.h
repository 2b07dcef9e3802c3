// Volcano-style executor interface and execution context.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"
#include "storage/buffer_pool.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/tuple_batch.h"
#include "util/result.h"
#include "util/timer.h"

namespace relopt {

class Executor;
class MetricsRegistry;
class PhysicalNode;
class FeedbackStore;
class PlanCache;
class QueryHistoryStore;
class ThreadPool;

/// \brief Per-operator runtime counters, maintained by the Executor base
/// around every Init()/NextBatch() call.
///
/// `wall_nanos` is inclusive (children's time counts toward their ancestors,
/// as in Postgres EXPLAIN ANALYZE). The I/O fields are exclusive ("self"):
/// page and pool traffic is attributed to the innermost operator whose
/// Init/NextBatch frame was active *on the executing thread* when it
/// happened, so per-node I/O sums to the query totals even under parallel
/// execution (attribution diffs thread-local counters; see
/// storage/io_counters.h).
///
/// One Executor instance is driven by exactly one thread, so the fields are
/// plain integers; parallel plans run one executor clone per worker and merge
/// the clones' stats after the workers have been joined.
struct OperatorStats {
  uint64_t init_calls = 0;   ///< stream (re)starts; >1 under nested loops
  uint64_t rows_produced = 0;  ///< total across all restarts
  uint64_t batches_produced = 0;  ///< NextBatch() calls
  uint64_t wall_nanos = 0;     ///< inclusive wall time in Init+NextBatch
  uint64_t first_start_nanos = 0;  ///< first Init, relative to the query epoch
  bool started = false;

  // Self-attributed I/O (excludes children).
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  /// Accumulates `other` into this (parallel-worker merge). Wall time sums
  /// (total busy time across workers); first_start takes the earliest.
  void Merge(const OperatorStats& other);
};

/// \brief Per-query execution context: catalog + buffer pool + scratch-file
/// management + runtime counters.
///
/// Scratch heaps (sort runs, Grace partitions) are created through the
/// context and destroyed with it, so their page I/O is counted by the same
/// DiskManager the optimizer models.
class ExecContext {
 public:
  /// `thread_pool` (with `parallelism` > 1) enables parallel executor
  /// construction; the pool must have at least `parallelism` threads and must
  /// outlive the context. The plan driver, parallel workers and operators
  /// that buffer a child's output pull TupleBatches of `batch_size` rows
  /// (0 is taken as 1).
  ExecContext(Catalog* catalog, BufferPool* pool, ThreadPool* thread_pool = nullptr,
              size_t parallelism = 1, size_t batch_size = TupleBatch::kDefaultCapacity);
  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  Catalog* catalog() const { return catalog_; }
  BufferPool* pool() const { return pool_; }
  ThreadPool* thread_pool() const { return thread_pool_; }
  /// Worker count for parallel fragments (1 = serial execution).
  size_t parallelism() const { return parallelism_; }
  /// Rows per TupleBatch the query is driven with (>= 1).
  size_t batch_size() const { return batch_size_; }

  /// Creates a scratch heap file (freed when the context dies). Thread-safe.
  Result<HeapFile> CreateScratchHeap();
  /// Frees one scratch heap early (e.g. merged sort runs). Thread-safe.
  void ReleaseScratchHeap(FileId file_id);

  /// Memory budget (in pages) for sort runs / hash tables / BNLJ blocks,
  /// derived from the buffer pool size: operators get roughly the pool minus
  /// a small reserve for pinned I/O pages.
  size_t operator_memory_pages() const;

  /// Total tuples passed through operators (the "RSI calls" actual).
  std::atomic<uint64_t> tuples_processed{0};

  // --- engine introspection (relopt_* table functions) ----------------------

  /// Installs the snapshot sources the introspection table functions read.
  /// Null pointers are allowed (the functions then error or return no rows);
  /// the Database facade wires both before building executors.
  void set_introspection(const MetricsRegistry* metrics, const QueryHistoryStore* history,
                         const PlanCache* plan_cache = nullptr,
                         const FeedbackStore* feedback = nullptr) {
    metrics_registry_ = metrics;
    query_history_ = history;
    plan_cache_ = plan_cache;
    feedback_store_ = feedback;
  }
  const MetricsRegistry* metrics_registry() const { return metrics_registry_; }
  const QueryHistoryStore* query_history() const { return query_history_; }
  const PlanCache* plan_cache() const { return plan_cache_; }
  const FeedbackStore* feedback_store() const { return feedback_store_; }

  // --- per-operator I/O attribution ---------------------------------------

  /// Flushes the calling thread's I/O-counter delta since the last switch
  /// into the thread's currently attributed stats (if any), then makes `next`
  /// the attribution target for this thread. Returns the previous target so
  /// scopes can nest. Attribution state is thread-local: each worker thread
  /// charges exactly the I/O it performed.
  OperatorStats* SwitchAttribution(OperatorStats* next);

  /// Nanoseconds since this context was created (Chrome-trace timestamps).
  uint64_t NanosSinceEpoch() const { return MonotonicNanos() - epoch_nanos_; }

  // --- executor registry (plan profiling) ----------------------------------

  /// Records that `exec` implements `node`; BuildExecutor calls this so
  /// EXPLAIN ANALYZE can map plan nodes to their runtime stats. A node may
  /// have several executors (one clone per parallel worker); the profile
  /// merges their stats. Executors are registered at build time (single
  /// threaded), never while workers run.
  void RegisterExecutor(const PhysicalNode* node, const Executor* exec) {
    executors_[node].push_back(exec);
  }
  /// The executors built for `node` (nullptr if none).
  const std::vector<const Executor*>* FindExecutors(const PhysicalNode* node) const {
    auto it = executors_.find(node);
    return it == executors_.end() ? nullptr : &it->second;
  }

  // --- parallel-work quiescing ---------------------------------------------

  /// Registers a hook that stops in-flight parallel work (a Gather cancelling
  /// its workers). Called at executor-build time, single threaded.
  void AddQuiesceHook(std::function<void()> hook) {
    quiesce_hooks_.push_back(std::move(hook));
  }
  /// Stops all parallel work. The caller (coordinating thread) MUST run this
  /// after the root iterator is abandoned and before reading executor stats
  /// or global I/O counters: an operator like LIMIT can stop consuming while
  /// workers are still producing. Idempotent; hooks outlive their executors
  /// only if this is called while the executor tree is alive.
  void Quiesce() {
    for (const std::function<void()>& hook : quiesce_hooks_) hook();
  }

 private:
  Catalog* catalog_;
  BufferPool* pool_;
  ThreadPool* thread_pool_;
  size_t parallelism_;
  size_t batch_size_;
  std::mutex scratch_mu_;  ///< guards scratch_files_
  std::vector<FileId> scratch_files_;
  std::unordered_map<const PhysicalNode*, std::vector<const Executor*>> executors_;
  std::vector<std::function<void()>> quiesce_hooks_;
  uint64_t epoch_nanos_ = 0;
  const MetricsRegistry* metrics_registry_ = nullptr;
  const QueryHistoryStore* query_history_ = nullptr;
  const PlanCache* plan_cache_ = nullptr;
  const FeedbackStore* feedback_store_ = nullptr;
};

/// RAII attribution frame: the enclosed I/O is charged to `stats`; nested
/// frames (child operators) take over and restore on exit.
class IoAttributionScope {
 public:
  IoAttributionScope(ExecContext* ctx, OperatorStats* stats)
      : ctx_(ctx), prev_(ctx->SwitchAttribution(stats)) {}
  ~IoAttributionScope() { ctx_->SwitchAttribution(prev_); }

  IoAttributionScope(const IoAttributionScope&) = delete;
  IoAttributionScope& operator=(const IoAttributionScope&) = delete;

 private:
  ExecContext* ctx_;
  OperatorStats* prev_;
};

/// \brief Base iterator. Usage: Init(), then NextBatch() until it returns
/// false. Init() may be called again to restart the stream from the beginning
/// (used by nested-loop joins to re-scan their inner input).
///
/// Init/NextBatch are instrumented non-virtual wrappers: they maintain the
/// OperatorStats block (call counts, rows, wall time, self-attributed I/O)
/// and delegate to the virtual InitImpl/NextBatchImpl that operators
/// implement.
class Executor {
 public:
  Executor(ExecContext* ctx, Schema schema) : ctx_(ctx), schema_(std::move(schema)) {}
  virtual ~Executor() = default;

  Status Init() {
    ScopedTimer timer(&stats_.wall_nanos);
    if (!stats_.started) {
      stats_.started = true;
      stats_.first_start_nanos = ctx_->NanosSinceEpoch();
    }
    ++stats_.init_calls;
    IoAttributionScope io(ctx_, &stats_);
    return InitImpl();
  }

  /// Produces the next batch of tuples. Clears `out`, then fills it with up
  /// to out->capacity() rows. Returns false iff the stream is exhausted —
  /// any rows already in `out` are still valid and must be consumed.
  /// Returning true with zero selected rows is legal (e.g. a filter that
  /// rejected a whole input batch); callers just pull again.
  Result<bool> NextBatch(TupleBatch* out) {
    ScopedTimer timer(&stats_.wall_nanos);
    ++stats_.batches_produced;
    IoAttributionScope io(ctx_, &stats_);
    out->Clear();
    RELOPT_ASSIGN_OR_RETURN(bool has, NextBatchImpl(out));
    const size_t n = out->NumSelected();
    stats_.rows_produced += n;
    if (n > 0) ctx_->tuples_processed.fetch_add(n, std::memory_order_relaxed);
    return has;
  }

  const Schema& schema() const { return schema_; }
  const OperatorStats& stats() const { return stats_; }

  /// Releases cross-call resources (pinned pages and their frame latches)
  /// held by this operator subtree, on the *calling* thread. Gather workers
  /// call this when a fragment stops mid-stream (cancellation under LIMIT,
  /// fail-fast on another worker's error): a frame latch acquired on the
  /// worker thread must be released by that same thread, not by the
  /// executor destructor on the session thread — pthread rwlocks make a
  /// cross-thread unlock undefined, and TSan's lock-order bookkeeping keeps
  /// the latch in the worker's held-set forever. Operators holding nothing
  /// across calls inherit the no-op; operators with children forward.
  virtual void Abandon() {}

 protected:
  virtual Status InitImpl() = 0;
  virtual Result<bool> NextBatchImpl(TupleBatch* out) = 0;

  ExecContext* ctx_;
  Schema schema_;
  OperatorStats stats_;
};

using ExecutorPtr = std::unique_ptr<Executor>;

/// The pull of the joins and IndexScan: `fill()` appends candidate rows to
/// `out` until it is full (false once the input is exhausted), and `pred`
/// compacts the batch's selection, as Filter does. A batch whose candidates
/// were all rejected is refilled rather than handed up. Candidates are
/// examined in input order and never beyond the batch's capacity, so under
/// LIMIT (which caps the batch) no more are examined than rows are needed.
template <typename Fill>
Result<bool> NextFiltered(BatchPredicate* pred, TupleBatch* out, Fill fill) {
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, fill());
    RELOPT_RETURN_NOT_OK(pred->Filter(out));
    if (!has || !out->Empty()) return has;
    out->Clear();
  }
}

/// \brief Reads a child's stream one row at a time while pulling it a batch
/// at a time. The joins that consume an input row by row (nested loops,
/// index probes, merging) read their children through one.
class RowCursor {
 public:
  /// `child` must outlive the cursor; it is pulled `batch_size` rows at once.
  RowCursor(Executor* child, size_t batch_size) : child_(child), batch_(batch_size) {}

  /// (Re)starts the child's stream and drops any buffered rows.
  Status Init() {
    batch_.Clear();
    pos_ = 0;
    done_ = false;
    return child_->Init();
  }

  /// Advances to the next row; false at the end of the child's stream.
  Result<bool> Next() {
    while (pos_ == batch_.NumSelected()) {
      if (done_) return false;
      RELOPT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch_));
      done_ = !has;
      pos_ = 0;
    }
    row_ = batch_.MutableRowAt(batch_.selection()[pos_++]);
    return true;
  }

  /// The current row. Valid (and movable from) until the next Next().
  Tuple* row() const { return row_; }

 private:
  Executor* child_;
  TupleBatch batch_;
  size_t pos_ = 0;
  bool done_ = false;
  Tuple* row_ = nullptr;
};

}  // namespace relopt
