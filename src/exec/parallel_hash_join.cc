#include "exec/parallel_hash_join.h"

#include "expr/vector_eval.h"

namespace relopt {

ParallelHashJoinWorker::ParallelHashJoinWorker(ExecContext* ctx, ExecutorPtr build,
                                              ExecutorPtr probe, std::vector<size_t> build_keys,
                                              std::vector<size_t> probe_keys,
                                              const Expression* residual, bool output_probe_first,
                                              std::shared_ptr<SharedHashJoinState> shared,
                                              size_t worker_idx)
    : Executor(ctx, output_probe_first ? Schema::Concat(probe->schema(), build->schema())
                                       : Schema::Concat(build->schema(), probe->schema())),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      residual_(residual),
      output_probe_first_(output_probe_first),
      shared_(std::move(shared)),
      worker_idx_(worker_idx),
      probe_batch_(ctx->batch_size()) {}

Status ParallelHashJoinWorker::PartitionBuildSide() {
  const size_t num_parts = shared_->num_workers();
  std::vector<std::vector<SharedHashJoinState::KeyedRow>>& mine =
      shared_->worker_partitions(worker_idx_);
  RELOPT_RETURN_NOT_OK(build_->Init());
  // One key-encoding loop per batch, then route rows.
  TupleBatch batch(ctx_->batch_size());
  std::vector<std::optional<std::string>> keys;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, build_->NextBatch(&batch));
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, build_keys_, &keys));
    for (size_t k = 0; k < batch.NumSelected(); ++k) {
      if (!keys[k].has_value()) continue;  // NULL keys never match
      Tuple& row = *batch.MutableRowAt(batch.selection()[k]);
      size_t p = hasher_(*keys[k]) % num_parts;
      mine[p].emplace_back(std::move(*keys[k]), std::move(row));
    }
    if (!has) return Status::OK();
  }
}

void ParallelHashJoinWorker::BuildTable() {
  SharedHashJoinState::HashTable& table = shared_->table(worker_idx_);
  size_t total = 0;
  for (size_t w = 0; w < shared_->num_workers(); ++w) {
    total += shared_->partition(w, worker_idx_).size();
  }
  table.reserve(total);
  for (size_t w = 0; w < shared_->num_workers(); ++w) {
    std::vector<SharedHashJoinState::KeyedRow>& rows = shared_->partition(w, worker_idx_);
    for (SharedHashJoinState::KeyedRow& kr : rows) {
      table.emplace(std::move(kr.first), std::move(kr.second));
    }
    rows.clear();
    rows.shrink_to_fit();
  }
}

Status ParallelHashJoinWorker::InitImpl() {
  matches_.clear();
  match_idx_ = 0;
  probe_batch_.Clear();
  batch_keys_.clear();
  probe_pos_ = 0;
  probe_done_ = false;
  batch_probe_row_ = nullptr;

  // SPMD discipline: park errors in the shared state and hit both barriers
  // unconditionally, or a sibling deadlocks waiting for us.
  Status st = PartitionBuildSide();
  if (!st.ok()) shared_->RecordError(st);
  shared_->barrier().ArriveAndWait();  // all build rows partitioned

  if (!shared_->failed()) BuildTable();
  shared_->barrier().ArriveAndWait();  // all tables built; read-only from here

  if (shared_->failed()) return shared_->first_error();
  return probe_->Init();
}

Result<bool> ParallelHashJoinWorker::NextBatchImpl(TupleBatch* out) {
  // Mirrors the serial join's in-memory probe: refill the probe batch, encode
  // all its keys in one loop, then drain each row's match list into the
  // output batch.
  const size_t num_parts = shared_->num_workers();
  while (true) {
    while (match_idx_ < matches_.size()) {
      if (out->Full()) return true;
      const Tuple& build_row = *matches_[match_idx_++];
      RELOPT_RETURN_NOT_OK(output_probe_first_
                               ? AppendJoined(*batch_probe_row_, build_row, residual_, out)
                               : AppendJoined(build_row, *batch_probe_row_, residual_, out));
    }
    if (probe_pos_ < probe_batch_.NumSelected()) {
      size_t k = probe_pos_++;
      matches_.clear();
      match_idx_ = 0;
      const std::optional<std::string>& key = batch_keys_[k];
      if (!key.has_value()) continue;  // NULL keys never match
      batch_probe_row_ = &probe_batch_.SelectedRow(k);
      const SharedHashJoinState::HashTable& table = shared_->table(hasher_(*key) % num_parts);
      auto [lo, hi] = table.equal_range(*key);
      for (auto it = lo; it != hi; ++it) matches_.push_back(&it->second);
      continue;
    }
    if (probe_done_) return false;
    RELOPT_ASSIGN_OR_RETURN(bool has, probe_->NextBatch(&probe_batch_));
    if (!has) probe_done_ = true;
    probe_pos_ = 0;
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(probe_batch_, probe_keys_, &batch_keys_));
  }
}

}  // namespace relopt
