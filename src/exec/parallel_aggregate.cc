#include "exec/parallel_aggregate.h"

namespace relopt {

ParallelAggregateWorker::ParallelAggregateWorker(ExecContext* ctx, Schema out_schema,
                                                 ExecutorPtr child,
                                                 std::vector<const Expression*> group_exprs,
                                                 std::vector<AggSpecExec> aggs,
                                                 std::shared_ptr<SharedAggregateState> shared,
                                                 size_t worker_idx)
    : Executor(ctx, std::move(out_schema)),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      shared_(std::move(shared)),
      worker_idx_(worker_idx),
      ingest_(&group_exprs_, &aggs_) {}

Status ParallelAggregateWorker::AccumulatePhase() {
  std::vector<GroupTable>& mine = shared_->worker_partitions(worker_idx_);
  mine.clear();
  for (size_t p = 0; p < shared_->num_workers(); ++p) {
    mine.emplace_back(group_exprs_.size(), aggs_);
  }
  RELOPT_RETURN_NOT_OK(child_->Init());
  return ingest_.Drain(child_.get(), ctx_->batch_size(), mine, &stats_.fallback_rows);
}

Status ParallelAggregateWorker::MergePhase() {
  GroupTable& merged = shared_->merged(worker_idx_);
  for (size_t w = 0; w < shared_->num_workers(); ++w) {
    GroupTable& part = shared_->partition(w, worker_idx_);
    if (merged.empty()) {
      merged = std::move(part);
    } else {
      RELOPT_RETURN_NOT_OK(merged.MergeFrom(part));
    }
    part = GroupTable();  // free it now: merged partitions are dead weight
  }
  // Scalar aggregate over an empty input still yields one (default) row,
  // emitted by the worker owning the empty key's partition.
  if (group_exprs_.empty() && merged.empty() &&
      GroupTable::PartitionOf(GroupTable::Hash(std::string_view()), shared_->num_workers()) ==
          worker_idx_) {
    merged = GroupTable(0, aggs_);
    merged.AddDefaultGroup();
  }
  return Status::OK();
}

Status ParallelAggregateWorker::InitImpl() {
  merged_ = nullptr;

  // SPMD discipline: park errors in the shared state and hit both barriers
  // unconditionally, or a sibling deadlocks waiting for us.
  Status st = AccumulatePhase();
  if (!st.ok()) shared_->RecordError(st);
  shared_->barrier().ArriveAndWait();  // all fragment rows partitioned

  if (!shared_->failed()) {
    st = MergePhase();
    if (!st.ok()) shared_->RecordError(st);
  }
  shared_->barrier().ArriveAndWait();  // all partitions merged; errors settled

  if (shared_->failed()) return shared_->first_error();
  merged_ = &shared_->merged(worker_idx_);
  next_ = 0;
  return Status::OK();
}

Result<bool> ParallelAggregateWorker::NextBatchImpl(TupleBatch* out) {
  if (merged_ == nullptr) return false;
  while (!out->Full() && next_ < merged_->size()) {
    RELOPT_RETURN_NOT_OK(merged_->Emit(next_++, out->AppendRow()));
  }
  return next_ < merged_->size();
}

}  // namespace relopt
