// Gather: the exchange operator bridging parallel workers back into the
// serial Volcano protocol.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "exec/executor.h"

namespace relopt {

/// Shared state used by a parallel fragment (morsel cursors, join partition
/// tables). The Gather resets every piece of shared state on (re)Init, on the
/// coordinating thread, before any worker launches.
class ParallelSharedState {
 public:
  virtual ~ParallelSharedState() = default;
  virtual void Reset() = 0;
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
  /// `workers.size()` tasks run concurrently: the context's thread pool must
  /// have at least that many threads (BuildGatherExecutor sizes both from
  /// ExecContext::parallelism, workers never block on unstarted peers).
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
