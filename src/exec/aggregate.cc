#include "exec/aggregate.h"

#include <algorithm>


namespace relopt {

GroupIngest::GroupIngest(const std::vector<const Expression*>* group_exprs,
                         const std::vector<AggSpecExec>* aggs)
    : group_exprs_(group_exprs), aggs_(aggs), key_encoder_(*group_exprs) {
  args_.reserve(aggs->size());
  for (const AggSpecExec& a : *aggs) {
    args_.push_back(a.arg != nullptr ? CompileExpr(a.arg) : nullptr);
  }
}

void GroupIngest::ResolveGroups(size_t n, std::span<GroupTable> tables) {
  row_table_.resize(n);
  row_state_.resize(n);
  if (group_exprs_->empty()) {
    // A global aggregate: every row belongs to the one empty-key group.
    const uint64_t hash = GroupTable::Hash(std::string_view());
    GroupTable* table = &tables[GroupTable::PartitionOf(hash, tables.size())];
    uint32_t id = table->FindOrInsert(std::string_view(), hash, [](size_t) { return Value(); });
    std::fill(row_table_.begin(), row_table_.end(), table);
    std::fill(row_state_.begin(), row_state_.end(), table->states(id));
    return;
  }
  // Ids first: an insert may move a table's state array, so the state
  // pointers are taken once the whole batch is resolved.
  row_ids_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const uint64_t hash = GroupTable::Hash(keys_[k]);
    GroupTable* table = &tables[GroupTable::PartitionOf(hash, tables.size())];
    row_table_[k] = table;
    row_ids_[k] = table->FindOrInsert(keys_[k], hash,
                                      [&](size_t i) { return key_encoder_.KeyValue(i, k); });
  }
  for (size_t k = 0; k < n; ++k) row_state_[k] = row_table_[k]->states(row_ids_[k]);
}

Status GroupIngest::AccumulateColumn(size_t a, const ColumnVec& vec) {
  const AggFunc func = (*aggs_)[a].func;
  const size_t n = row_state_.size();
  if (!vec.boxed && vec.type == TypeId::kInt64) {
    for (size_t k = 0; k < n; ++k) {
      if (vec.NullAt(k)) continue;
      RELOPT_RETURN_NOT_OK(row_table_[k]->AccumulateInt(func, vec.I64At(k), &row_state_[k][a]));
    }
  } else if (!vec.boxed && vec.type == TypeId::kDouble) {
    for (size_t k = 0; k < n; ++k) {
      if (vec.NullAt(k)) continue;
      RELOPT_RETURN_NOT_OK(
          row_table_[k]->AccumulateDouble(func, vec.F64At(k), &row_state_[k][a]));
    }
  } else {
    Value storage;
    for (size_t k = 0; k < n; ++k) {
      if (vec.NullAt(k)) continue;
      const Value& v = vec.boxed ? vec.BoxedAt(k) : (storage = vec.GetValue(k));
      RELOPT_RETURN_NOT_OK(row_table_[k]->Accumulate(func, v, &row_state_[k][a]));
    }
  }
  return Status::OK();
}

Status GroupIngest::IngestBatch(const TupleBatch& batch, std::span<GroupTable> tables,
                                uint64_t* fallback_rows) {
  const size_t n = batch.NumSelected();
  if (n == 0) return Status::OK();
  if (!group_exprs_->empty()) {
    RELOPT_RETURN_NOT_OK(key_encoder_.Encode(batch, &keys_, fallback_rows));
  }
  ResolveGroups(n, tables);
  for (size_t a = 0; a < aggs_->size(); ++a) {
    if (args_[a] == nullptr) {  // COUNT(*)
      for (AggState* s : row_state_) ++s[a].count;
      continue;
    }
    RELOPT_RETURN_NOT_OK(args_[a]->Eval(batch, batch.selection(), fallback_rows, &arg_vec_));
    RELOPT_RETURN_NOT_OK(AccumulateColumn(a, arg_vec_));
  }
  return Status::OK();
}

Status GroupIngest::Drain(Executor* child, size_t batch_size, std::span<GroupTable> tables,
                          uint64_t* fallback_rows) {
  TupleBatch batch(batch_size);
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, child->NextBatch(&batch));
    RELOPT_RETURN_NOT_OK(IngestBatch(batch, tables, fallback_rows));
    if (!has) return Status::OK();
  }
}

AggregateExecutor::AggregateExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                                     std::vector<const Expression*> group_exprs,
                                     std::vector<AggSpecExec> aggs,
                                     std::shared_ptr<SharedAggregateState> shared, size_t worker)
    : Executor(ctx, std::move(out_schema)),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      shared_(shared != nullptr ? std::move(shared) : std::make_shared<SharedAggregateState>(1)),
      worker_(worker),
      ingest_(&group_exprs_, &aggs_) {}

Status AggregateExecutor::Accumulate() {
  std::vector<GroupTable>& mine = shared_->worker_partitions(worker_);
  mine.clear();
  for (size_t p = 0; p < shared_->num_workers(); ++p) {
    mine.emplace_back(group_exprs_.size(), aggs_);
  }
  RELOPT_RETURN_NOT_OK(child_->Init());
  return ingest_.Drain(child_.get(), ctx_->batch_size(), mine, &stats_.fallback_rows);
}

Status AggregateExecutor::Merge() {
  const size_t n = shared_->num_workers();
  GroupTable& merged = shared_->merged(worker_);
  for (size_t w = 0; w < n; ++w) {
    GroupTable& part = shared_->partition(w, worker_);
    if (merged.empty()) {
      merged = std::move(part);
    } else {
      RELOPT_RETURN_NOT_OK(merged.MergeFrom(part));
    }
    part = GroupTable();  // free it now: merged partitions are dead weight
  }
  // A global aggregate over an empty input still yields one (default) row,
  // emitted by the worker owning the empty key's partition.
  if (group_exprs_.empty() && merged.empty() &&
      GroupTable::PartitionOf(GroupTable::Hash(std::string_view()), n) == worker_) {
    merged = GroupTable(0, aggs_);
    merged.AddDefaultGroup();
  }
  return Status::OK();
}

Status AggregateExecutor::InitImpl() {
  shared_->ResetIfSerial();
  merged_ = nullptr;
  shared_->EndPhase(Accumulate());  // all input rows partitioned
  shared_->EndPhase(shared_->failed() ? Status::OK() : Merge());  // partitions merged
  RELOPT_RETURN_NOT_OK(shared_->first_error());
  merged_ = &shared_->merged(worker_);
  key_order_ = shared_->num_workers() == 1 ? merged_->IdsInKeyOrder() : std::vector<uint32_t>();
  next_ = 0;
  return Status::OK();
}

Result<bool> AggregateExecutor::NextBatchImpl(TupleBatch* out) {
  if (merged_ == nullptr) return false;
  while (!out->Full() && next_ < merged_->size()) {
    const uint32_t id = key_order_.empty() ? next_ : key_order_[next_];
    ++next_;
    RELOPT_RETURN_NOT_OK(merged_->Emit(id, out->AppendRow()));
  }
  return next_ < merged_->size();
}

}  // namespace relopt
