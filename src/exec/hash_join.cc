#include "exec/hash_join.h"

#include "expr/vector_eval.h"

namespace relopt {

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                                   const Expression* residual, bool output_probe_first)
    : Executor(ctx, MakeOutputSchema(*build, *probe, output_probe_first)),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      residual_(residual),
      output_probe_first_(output_probe_first),
      probe_batch_(ctx->batch_size()) {}

Schema HashJoinExecutor::MakeOutputSchema(const Executor& build, const Executor& probe,
                                          bool output_probe_first) {
  return output_probe_first ? Schema::Concat(probe.schema(), build.schema())
                            : Schema::Concat(build.schema(), probe.schema());
}

Status HashJoinExecutor::InitImpl() {
  table_.clear();
  matches_.clear();
  match_idx_ = 0;
  grace_ = false;
  build_parts_.clear();
  probe_parts_.clear();
  part_probe_iter_.reset();
  part_idx_ = 0;
  probe_batch_.Clear();
  batch_keys_.clear();
  probe_pos_ = 0;
  probe_done_ = false;
  probe_row_ = nullptr;

  // Drain the build side, tracking size against the memory budget. Each
  // batch's join keys are encoded in one tight loop, so the hash-table build
  // (and a possible Grace partition pass) never re-derives keys.
  RELOPT_RETURN_NOT_OK(build_->Init());
  const size_t budget = ctx_->operator_memory_pages() * kPageSize;
  std::vector<Tuple> build_rows;
  std::vector<std::optional<std::string>> build_row_keys;
  size_t bytes = 0;
  TupleBatch batch(ctx_->batch_size());
  std::vector<std::optional<std::string>> keys;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, build_->NextBatch(&batch));
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, build_keys_, &keys));
    for (size_t k = 0; k < batch.NumSelected(); ++k) {
      Tuple& row = *batch.MutableRowAt(batch.selection()[k]);
      bytes += row.SerializedSize() + 16;
      build_rows.push_back(std::move(row));
      build_row_keys.push_back(std::move(keys[k]));
    }
    if (!has) break;
  }

  if (bytes > budget) {
    grace_ = true;
    num_partitions_ = std::min<size_t>(64, bytes / budget + 2);
    return Partition(&build_rows, &build_row_keys);
  }
  table_.reserve(build_rows.size());
  for (size_t i = 0; i < build_rows.size(); ++i) {
    if (!build_row_keys[i].has_value()) continue;  // NULL keys never match
    table_.emplace(std::move(*build_row_keys[i]), std::move(build_rows[i]));
  }
  return probe_->Init();
}

Status HashJoinExecutor::Partition(std::vector<Tuple>* build_rows,
                                   std::vector<std::optional<std::string>>* build_keys) {
  for (size_t i = 0; i < num_partitions_; ++i) {
    RELOPT_ASSIGN_OR_RETURN(HeapFile bp, ctx_->CreateScratchHeap());
    build_parts_.push_back(std::move(bp));
    RELOPT_ASSIGN_OR_RETURN(HeapFile pp, ctx_->CreateScratchHeap());
    probe_parts_.push_back(std::move(pp));
  }
  std::hash<std::string> hasher;
  for (size_t i = 0; i < build_rows->size(); ++i) {
    const std::optional<std::string>& key = (*build_keys)[i];
    if (!key.has_value()) continue;  // NULL keys never match
    size_t p = hasher(*key) % num_partitions_;
    RELOPT_ASSIGN_OR_RETURN(Rid rid, build_parts_[p].Insert((*build_rows)[i].Serialize()));
    (void)rid;
  }
  build_rows->clear();
  build_keys->clear();
  RELOPT_RETURN_NOT_OK(probe_->Init());
  bool has = true;
  while (has) {
    RELOPT_ASSIGN_OR_RETURN(has, probe_->NextBatch(&probe_batch_));
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(probe_batch_, probe_keys_, &batch_keys_));
    for (size_t k = 0; k < probe_batch_.NumSelected(); ++k) {
      if (!batch_keys_[k].has_value()) continue;
      size_t p = hasher(*batch_keys_[k]) % num_partitions_;
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
  table_.clear();
  part_probe_iter_.reset();
  TupleBatch batch(ctx_->batch_size());
  std::vector<std::optional<std::string>> keys;
  while (part_idx_ < num_partitions_) {
    HeapFile::Iterator it(&build_parts_[part_idx_]);
    bool more = true;
    while (more) {
      RELOPT_ASSIGN_OR_RETURN(more, ReadHeapBatch(&it, build_->schema().NumColumns(), &batch));
      RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, build_keys_, &keys));
      for (size_t k = 0; k < batch.NumSelected(); ++k) {
        table_.emplace(std::move(*keys[k]), std::move(*batch.MutableRowAt(k)));
      }
    }
    // Even an empty build partition must advance past its probe partition.
    if (!table_.empty() || probe_parts_[part_idx_].NumPages() > 0) {
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
      auto [lo, hi] = table_.equal_range(*key);
      for (auto it = lo; it != hi; ++it) matches_.push_back(&it->second);
      continue;
    }
    RELOPT_ASSIGN_OR_RETURN(bool more, RefillProbeBatch());
    if (!more) return false;
  }
}

}  // namespace relopt
