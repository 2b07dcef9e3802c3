#include "exec/hash_join.h"

#include <algorithm>

#include "expr/vector_eval.h"

namespace relopt {

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                                   const Expression* residual, bool output_probe_first,
                                   std::shared_ptr<SharedHashJoinState> shared, size_t worker)
    : Executor(ctx, output_probe_first ? Schema::Concat(probe->schema(), build->schema())
                                       : Schema::Concat(build->schema(), probe->schema())),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      residual_(residual),
      output_probe_first_(output_probe_first),
      shared_(shared != nullptr ? std::move(shared) : std::make_shared<SharedHashJoinState>(1)),
      worker_(worker),
      probe_batch_(ctx->batch_size()) {}

Status HashJoinExecutor::InitImpl() {
  shared_->ResetIfSerial();
  probe_batch_.Clear();
  batch_keys_.clear();
  probe_pos_ = 0;
  probe_done_ = false;
  probe_row_ = nullptr;
  matches_.clear();
  match_idx_ = 0;
  build_parts_.clear();
  probe_parts_.clear();
  part_idx_ = 0;
  part_probe_iter_.reset();

  size_t bytes = 0;
  shared_->EndPhase(PartitionBuildSide(&bytes));  // all build rows partitioned
  // Only the one-worker join spills; the parallel build stays in memory.
  const size_t budget = ctx_->operator_memory_pages() * kPageSize;
  grace_ = shared_->num_workers() == 1 && bytes > budget;
  if (!grace_ && !shared_->failed()) BuildTable();
  shared_->EndPhase(Status::OK());  // all tables built; read-only from here
  RELOPT_RETURN_NOT_OK(shared_->first_error());
  if (!grace_) return probe_->Init();
  num_spill_parts_ = std::min<size_t>(64, bytes / budget + 2);
  return Spill();
}

Status HashJoinExecutor::PartitionBuildSide(size_t* bytes) {
  // Each batch's join keys are encoded in one tight loop, so the table build
  // (and a possible Grace spill) never re-derives keys.
  RELOPT_RETURN_NOT_OK(build_->Init());
  TupleBatch batch(ctx_->batch_size());
  std::vector<std::optional<std::string>> keys;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, build_->NextBatch(&batch));
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, build_keys_, &keys));
    for (size_t k = 0; k < batch.NumSelected(); ++k) {
      Tuple& row = *batch.MutableRowAt(batch.selection()[k]);
      *bytes += row.SerializedSize() + 16;
      if (!keys[k].has_value()) continue;  // NULL keys never match
      shared_->partition(worker_, shared_->PartitionOf(*keys[k]))
          .emplace_back(std::move(*keys[k]), std::move(row));
    }
    if (!has) return Status::OK();
  }
}

void HashJoinExecutor::BuildTable() {
  SharedHashJoinState::HashTable& table = shared_->table(worker_);
  const size_t n = shared_->num_workers();
  size_t total = 0;
  for (size_t w = 0; w < n; ++w) total += shared_->partition(w, worker_).size();
  table.reserve(total);
  for (size_t w = 0; w < n; ++w) {
    std::vector<SharedHashJoinState::KeyedRow>& rows = shared_->partition(w, worker_);
    for (SharedHashJoinState::KeyedRow& kr : rows) {
      table.emplace(std::move(kr.first), std::move(kr.second));
    }
    rows.clear();
    rows.shrink_to_fit();
  }
}

Status HashJoinExecutor::Spill() {
  for (size_t i = 0; i < num_spill_parts_; ++i) {
    RELOPT_ASSIGN_OR_RETURN(HeapFile bp, ctx_->CreateScratchHeap());
    build_parts_.push_back(std::move(bp));
    RELOPT_ASSIGN_OR_RETURN(HeapFile pp, ctx_->CreateScratchHeap());
    probe_parts_.push_back(std::move(pp));
  }
  std::hash<std::string> hasher;
  std::vector<SharedHashJoinState::KeyedRow>& rows = shared_->partition(0, 0);
  for (const SharedHashJoinState::KeyedRow& kr : rows) {
    size_t p = hasher(kr.first) % num_spill_parts_;
    RELOPT_ASSIGN_OR_RETURN(Rid rid, build_parts_[p].Insert(kr.second.Serialize()));
    (void)rid;
  }
  rows.clear();
  rows.shrink_to_fit();
  RELOPT_RETURN_NOT_OK(probe_->Init());
  bool has = true;
  while (has) {
    RELOPT_ASSIGN_OR_RETURN(has, probe_->NextBatch(&probe_batch_));
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(probe_batch_, probe_keys_, &batch_keys_));
    for (size_t k = 0; k < probe_batch_.NumSelected(); ++k) {
      if (!batch_keys_[k].has_value()) continue;
      size_t p = hasher(*batch_keys_[k]) % num_spill_parts_;
      RELOPT_ASSIGN_OR_RETURN(Rid rid, probe_parts_[p].Insert(probe_batch_.SelectedRow(k).Serialize()));
      (void)rid;
    }
  }
  probe_batch_.Clear();
  part_idx_ = 0;
  return LoadPartition();
}

namespace {

/// Fills `out` with the next records of a partition heap, up to its
/// capacity; false once the heap is exhausted.
Result<bool> ReadHeapBatch(HeapFile::Iterator* it, size_t num_cols, TupleBatch* out) {
  out->Clear();
  Rid rid;
  std::string bytes;
  while (!out->Full()) {
    RELOPT_ASSIGN_OR_RETURN(bool has, it->Next(&rid, &bytes));
    if (!has) return false;
    RELOPT_RETURN_NOT_OK(out->AppendRow()->FillFrom(bytes, num_cols));
  }
  return true;
}

}  // namespace

Status HashJoinExecutor::LoadPartition() {
  SharedHashJoinState::HashTable& table = shared_->table(0);
  table.clear();
  part_probe_iter_.reset();
  TupleBatch batch(ctx_->batch_size());
  std::vector<std::optional<std::string>> keys;
  while (part_idx_ < num_spill_parts_) {
    HeapFile::Iterator it(&build_parts_[part_idx_]);
    bool more = true;
    while (more) {
      RELOPT_ASSIGN_OR_RETURN(more, ReadHeapBatch(&it, build_->schema().NumColumns(), &batch));
      RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, build_keys_, &keys));
      for (size_t k = 0; k < batch.NumSelected(); ++k) {
        table.emplace(std::move(*keys[k]), std::move(*batch.MutableRowAt(k)));
      }
    }
    // Even an empty build partition must advance past its probe partition.
    if (!table.empty() || probe_parts_[part_idx_].NumPages() > 0) {
      part_probe_iter_ = std::make_unique<HeapFile::Iterator>(&probe_parts_[part_idx_]);
      probe_done_ = false;
      return Status::OK();
    }
    ++part_idx_;
  }
  return Status::OK();
}

Result<bool> HashJoinExecutor::RefillProbeBatch() {
  probe_pos_ = 0;
  if (!grace_) {
    if (probe_done_) return false;
    RELOPT_ASSIGN_OR_RETURN(bool has, probe_->NextBatch(&probe_batch_));
    probe_done_ = !has;
  } else {
    // Partition rows have non-NULL keys; a batch never spans partitions.
    probe_batch_.Clear();
    while (probe_batch_.Empty()) {
      if (probe_done_) {  // this partition is fully probed: load the next
        ++part_idx_;
        RELOPT_RETURN_NOT_OK(LoadPartition());
      }
      if (part_probe_iter_ == nullptr) return false;
      RELOPT_ASSIGN_OR_RETURN(
          bool more,
          ReadHeapBatch(part_probe_iter_.get(), probe_->schema().NumColumns(), &probe_batch_));
      probe_done_ = !more;
    }
  }
  RELOPT_RETURN_NOT_OK(ComputeJoinKeys(probe_batch_, probe_keys_, &batch_keys_));
  return true;
}

Result<bool> HashJoinExecutor::NextBatchImpl(TupleBatch* out) {
  while (true) {
    // Drain the current probe row's match list into the output batch.
    while (match_idx_ < matches_.size()) {
      if (out->Full()) return true;
      const Tuple& build_row = *matches_[match_idx_++];
      RELOPT_RETURN_NOT_OK(output_probe_first_
                               ? AppendJoined(*probe_row_, build_row, residual_, out)
                               : AppendJoined(build_row, *probe_row_, residual_, out));
    }
    // Advance to the next probe row with a precomputed key.
    if (probe_pos_ < probe_batch_.NumSelected()) {
      size_t k = probe_pos_++;
      matches_.clear();
      match_idx_ = 0;
      const std::optional<std::string>& key = batch_keys_[k];
      if (!key.has_value()) continue;  // NULL keys never match
      probe_row_ = &probe_batch_.SelectedRow(k);
      const SharedHashJoinState::HashTable& table = shared_->table(shared_->PartitionOf(*key));
      auto [lo, hi] = table.equal_range(*key);
      for (auto it = lo; it != hi; ++it) matches_.push_back(&it->second);
      continue;
    }
    RELOPT_ASSIGN_OR_RETURN(bool more, RefillProbeBatch());
    if (!more) return false;
  }
}

}  // namespace relopt
