#include "exec/aggregate.h"

#include <algorithm>


namespace relopt {

GroupIngest::GroupIngest(const std::vector<const Expression*>* group_exprs,
                         const std::vector<AggSpecExec>* aggs)
    : group_exprs_(group_exprs), aggs_(aggs), key_computer_(group_exprs) {
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
                                      [&](size_t i) { return key_computer_.KeyValue(i, k); });
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
    RELOPT_RETURN_NOT_OK(key_computer_.Compute(batch, &keys_, fallback_rows));
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
                                     std::vector<AggSpecExec> aggs)
    : Executor(ctx, std::move(out_schema)),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      ingest_(&group_exprs_, &aggs_) {}

Status AggregateExecutor::InitImpl() {
  groups_ = GroupTable(group_exprs_.size(), aggs_);
  done_build_ = false;
  RELOPT_RETURN_NOT_OK(child_->Init());
  RELOPT_RETURN_NOT_OK(ingest_.Drain(child_.get(), ctx_->batch_size(),
                                     std::span<GroupTable>(&groups_, 1), &stats_.fallback_rows));

  // Scalar aggregate over an empty input still yields one (default) row.
  if (groups_.empty() && group_exprs_.empty()) groups_.AddDefaultGroup();
  emit_order_ = groups_.IdsInKeyOrder();
  next_ = 0;
  done_build_ = true;
  return Status::OK();
}

Result<bool> AggregateExecutor::NextBatchImpl(TupleBatch* out) {
  if (!done_build_) return false;
  while (!out->Full() && next_ < emit_order_.size()) {
    RELOPT_RETURN_NOT_OK(groups_.Emit(emit_order_[next_++], out->AppendRow()));
  }
  return next_ < emit_order_.size();
}

}  // namespace relopt
