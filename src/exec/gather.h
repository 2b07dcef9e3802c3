// Gather: the exchange operator bridging parallel workers back into the
// serial Volcano protocol.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "exec/executor.h"
#include "util/thread_pool.h"

namespace relopt {

/// \brief State the `num_workers` executors of one plan node share: a morsel
/// cursor, join partitions and tables, aggregate partitions.
///
/// Several workers run under a Gather, which resets every shared state on
/// (re)Init, on the coordinating thread, before any worker launches. A
/// one-worker state has no Gather: its operator owns it and resets it in its
/// own Init (ResetIfSerial).
class ParallelSharedState {
 public:
  explicit ParallelSharedState(size_t num_workers) : num_workers_(num_workers) {}
  virtual ~ParallelSharedState() = default;

  virtual void Reset() = 0;
  size_t num_workers() const { return num_workers_; }
  /// Resets a one-worker state; called by its operator's Init.
  void ResetIfSerial() {
    if (num_workers_ == 1) Reset();
  }

 private:
  const size_t num_workers_;
};

/// \brief Shared state its workers build in SPMD phases (partitioned hash
/// join, partitioned aggregation): a barrier ends each phase, and the first
/// error any worker hits is parked until every worker has seen the barrier.
class PhasedSharedState : public ParallelSharedState {
 public:
  explicit PhasedSharedState(size_t num_workers)
      : ParallelSharedState(num_workers), barrier_(num_workers) {}

  /// Ends this worker's current phase: records `st` if it is the first error,
  /// then waits for every sibling. Every worker must end every phase, on
  /// error paths too, or its siblings wait forever.
  void EndPhase(const Status& st) {
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!failed_.load(std::memory_order_relaxed)) {
        first_error_ = st;
        failed_.store(true, std::memory_order_release);
      }
    }
    barrier_.ArriveAndWait();
  }
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// The first error of the phases every worker has ended; OK if none.
  Status first_error() const {
    std::lock_guard<std::mutex> lock(error_mu_);
    return first_error_;
  }

 protected:
  /// Clears the error slot; derived Resets call this.
  void ClearError() {
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = Status::OK();
  }

 private:
  Barrier barrier_;
  std::atomic<bool> failed_{false};
  mutable std::mutex error_mu_;
  Status first_error_;
};

/// \brief Runs N worker executors on the thread pool and merges their output
/// streams into one iterator.
///
/// Protocol: InitImpl resets shared state and submits one task per worker;
/// each task runs its worker's Init, then drains it batch by batch, pushing
/// each batch's selected rows into a bounded queue. NextBatchImpl pops one
/// queue entry per call. Errors from any worker surface from NextBatch
/// (first error wins) after all workers have stopped. Row order is
/// nondeterministic; operators above (Sort, Aggregate) impose order.
///
/// Re-Init (e.g. under a restarted outer) joins the previous worker
/// generation, resets shared state, and relaunches. The destructor cancels
/// and joins, so abandoning a partially drained Gather (LIMIT) is safe.
class GatherExecutor : public Executor {
 public:
  /// `workers.size()` (at least 2) tasks run concurrently: the context's
  /// thread pool must have at least that many threads (BuildExecutor sizes
  /// both from ExecContext::parallelism, workers never block on unstarted
  /// peers). `shared_states` are the workers' multi-worker states.
  GatherExecutor(ExecContext* ctx, Schema schema, std::vector<ExecutorPtr> workers,
                 std::vector<std::shared_ptr<ParallelSharedState>> shared_states);
  ~GatherExecutor() override;

  Status InitImpl() override;
  /// Adopts one queue entry per call by moving its tuples into `out`. False
  /// at end of stream; surfaces the first worker error.
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  void WorkerMain(size_t worker_idx);
  /// Blocks while the queue is full; false if cancelled (stop producing).
  bool PushBatch(std::vector<Tuple>* batch);
  /// Cancels and waits until every launched worker has finished.
  void StopWorkers();

  std::vector<ExecutorPtr> workers_;
  std::vector<std::shared_ptr<ParallelSharedState>> shared_states_;

  std::mutex mu_;
  std::condition_variable producer_cv_;  ///< queue has room / cancelled
  std::condition_variable consumer_cv_;  ///< queue nonempty / workers done
  std::deque<std::vector<Tuple>> queue_;
  size_t running_workers_ = 0;
  bool cancelled_ = false;
  bool launched_ = false;
  bool has_error_ = false;
  std::vector<Status> worker_status_;
};

}  // namespace relopt
