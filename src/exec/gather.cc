#include "exec/gather.h"

#include "util/logging.h"
#include "util/thread_pool.h"

namespace relopt {

GatherExecutor::GatherExecutor(ExecContext* ctx, Schema schema, std::vector<ExecutorPtr> workers,
                               std::vector<std::shared_ptr<ParallelSharedState>> shared_states)
    : Executor(ctx, std::move(schema)),
      workers_(std::move(workers)),
      shared_states_(std::move(shared_states)) {
  // An abandoned Gather (e.g. under LIMIT) leaves workers producing;
  // ExecContext::Quiesce lets the coordinator stop them before it reads
  // stats or I/O counters.
  ctx->AddQuiesceHook([this] { StopWorkers(); });
}

GatherExecutor::~GatherExecutor() { StopWorkers(); }

void GatherExecutor::StopWorkers() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!launched_) return;
  cancelled_ = true;
  producer_cv_.notify_all();
  // Workers blocked on a full queue wake on cancelled_; workers inside a
  // barrier always reach it (build phases never touch the queue), so every
  // task terminates.
  consumer_cv_.wait(lock, [this] { return running_workers_ == 0; });
  queue_.clear();
  launched_ = false;
}

Status GatherExecutor::InitImpl() {
  StopWorkers();
  for (const std::shared_ptr<ParallelSharedState>& s : shared_states_) s->Reset();

  ThreadPool* pool = ctx_->thread_pool();
  RELOPT_DCHECK(pool != nullptr && pool->num_threads() >= workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = false;
    launched_ = true;
    has_error_ = false;
    worker_status_.assign(workers_.size(), Status::OK());
    running_workers_ = workers_.size();
  }
  // Worker loops coordinate with barriers (parallel build phases), so they
  // must all run concurrently. Gang admission blocks this coordinator — a
  // session thread, never a pool thread — until the pool can run the whole
  // set, so two sessions' gangs never interleave in the queue and deadlock.
  std::vector<std::function<void()>> gang;
  gang.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    gang.push_back([this, i] { WorkerMain(i); });
  }
  pool->SubmitGang(std::move(gang));
  return Status::OK();
}

bool GatherExecutor::PushBatch(std::vector<Tuple>* batch) {
  // Bound the queue so fast workers don't materialize the whole result:
  // a couple of batches in flight per worker keeps everyone busy.
  const size_t max_queue = 2 * workers_.size() + 2;
  std::unique_lock<std::mutex> lock(mu_);
  producer_cv_.wait(lock, [&] { return cancelled_ || queue_.size() < max_queue; });
  if (cancelled_) return false;
  queue_.push_back(std::move(*batch));
  batch->clear();
  consumer_cv_.notify_one();
  return true;
}

void GatherExecutor::WorkerMain(size_t worker_idx) {
  Executor* exec = workers_[worker_idx].get();
  Status st = exec->Init();
  if (st.ok()) {
    // Ship each batch's selected rows as one queue vector.
    TupleBatch batch(ctx_->batch_size());
    std::vector<Tuple> rows;
    while (true) {
      Result<bool> has = exec->NextBatch(&batch);
      if (!has.ok()) {
        st = has.status();
        break;
      }
      if (batch.NumSelected() > 0) {
        rows.reserve(batch.NumSelected());
        for (uint32_t i : batch.selection()) rows.push_back(std::move(*batch.MutableRowAt(i)));
        if (!PushBatch(&rows)) break;
      }
      if (!*has) break;
    }
  }
  // Release any page still pinned by this fragment (cancelled or errored
  // mid-scan) on this thread — frame latches must be unlocked by the thread
  // that acquired them. No-op after a clean drain.
  exec->Abandon();
  std::lock_guard<std::mutex> lock(mu_);
  if (!st.ok()) {
    worker_status_[worker_idx] = std::move(st);
    has_error_ = true;
  }
  --running_workers_;
  consumer_cv_.notify_all();
}

Result<bool> GatherExecutor::NextBatchImpl(TupleBatch* out) {
  std::unique_lock<std::mutex> lock(mu_);
  consumer_cv_.wait(lock,
                    [this] { return has_error_ || !queue_.empty() || running_workers_ == 0; });
  if (has_error_) {
    // Fail fast: cancel the remaining workers, then surface the first
    // (lowest worker index) error, matching serial fail-on-first-error.
    lock.unlock();
    StopWorkers();
    for (Status& st : worker_status_) {
      if (!st.ok()) return st;
    }
    return Status::Internal("gather error flag set without a worker status");
  }
  if (queue_.empty()) {  // all workers finished and the queue is drained
    launched_ = false;
    return false;
  }
  // Workers ship nonempty vectors of at most ctx batch_size rows, so one
  // always fits `out`.
  std::vector<Tuple> rows = std::move(queue_.front());
  queue_.pop_front();
  producer_cv_.notify_all();
  lock.unlock();
  for (Tuple& t : rows) out->AppendTuple(std::move(t));
  return true;
}

}  // namespace relopt
