#include "exec/hash_join.h"

#include <algorithm>
#include <bit>
#include <iterator>

namespace relopt {

void JoinTable::Add(Tuple* row, std::string_view key, uint64_t hash) {
  width_ = row->NumValues();
  for (size_t c = 0; c < width_; ++c) values_.push_back(std::move(row->MutableAt(c)));
  entries_.push_back(Entry{hash, keys_.size(), keys_.size() + key.size(), kEnd});
  keys_.append(key);
}

void JoinTable::Absorb(JoinTable* other) {
  if (other->empty()) return;
  width_ = other->width_;
  values_.insert(values_.end(), std::make_move_iterator(other->values_.begin()),
                 std::make_move_iterator(other->values_.end()));
  const size_t shift = keys_.size();
  for (const Entry& e : other->entries_) {
    entries_.push_back(Entry{e.hash, e.key_begin + shift, e.key_end + shift, kEnd});
  }
  keys_.append(other->keys_);
  *other = JoinTable{};
}

void JoinTable::Index() {
  const size_t num_buckets = std::bit_ceil(std::max<size_t>(entries_.size(), 1));
  buckets_.assign(num_buckets, kEnd);
  mask_ = num_buckets - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t& head = buckets_[entries_[i].hash & mask_];
    entries_[i].next = head;
    head = i;
  }
}

void JoinTable::Clear() {
  values_.clear();
  keys_.clear();
  entries_.clear();
  buckets_.assign(1, kEnd);
  mask_ = 0;
}

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                                   const Expression* residual, bool output_probe_first,
                                   std::span<const uint32_t> columns,
                                   std::shared_ptr<SharedHashJoinState> shared, size_t worker)
    : Executor(ctx, output_probe_first ? Schema::Concat(probe->schema(), build->schema(), columns)
                                       : Schema::Concat(build->schema(), probe->schema(), columns)),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      residual_(residual),
      output_probe_first_(output_probe_first),
      row_builder_(columns, (output_probe_first ? probe_ : build_)->schema().NumColumns()),
      all_build_columns_(AllColumns(build_->schema().NumColumns())),
      all_probe_columns_(AllColumns(probe_->schema().NumColumns())),
      shared_(shared != nullptr ? std::move(shared) : std::make_shared<SharedHashJoinState>(1)),
      worker_(worker),
      probe_batch_(ctx->batch_size()) {
  // INT keys compare exactly only where both sides are INT; INT = DOUBLE
  // compares as doubles (Value::Compare).
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    exact_int_.push_back(build_->schema().ColumnAt(build_keys_[i]).type == TypeId::kInt64 &&
                         probe_->schema().ColumnAt(probe_keys_[i]).type == TypeId::kInt64);
  }
}

Status HashJoinExecutor::InitImpl() {
  shared_->ResetIfSerial();
  probe_batch_.Clear();
  batch_keys_.clear();
  probe_pos_ = 0;
  probe_done_ = false;
  match_table_ = nullptr;
  match_ = JoinTable::kEnd;
  part_probe_cursor_.reset();  // before the heap it reads
  build_parts_.clear();
  probe_parts_.clear();
  part_idx_ = 0;

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
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, build_keys_, exact_int_, &keys));
    for (size_t k = 0; k < batch.NumSelected(); ++k) {
      Tuple* row = batch.MutableRowAt(batch.selection()[k]);
      *bytes += row->SerializedSize() + 16;
      if (!keys[k].has_value()) continue;  // NULL keys never match
      const uint64_t hash = GroupTable::Hash(*keys[k]);
      shared_->partition(worker_, shared_->PartitionOf(hash)).Add(row, *keys[k], hash);
    }
    if (!has) return Status::OK();
  }
}

void HashJoinExecutor::BuildTable() {
  JoinTable& table = shared_->table(worker_);
  const size_t n = shared_->num_workers();
  if (n > 1) {  // one worker's rows already landed in its table
    for (size_t w = 0; w < n; ++w) table.Absorb(&shared_->partition(w, worker_));
  }
  table.Index();
}

Status HashJoinExecutor::Spill() {
  for (size_t i = 0; i < num_spill_parts_; ++i) {
    RELOPT_ASSIGN_OR_RETURN(HeapFile bp, ctx_->CreateScratchHeap());
    build_parts_.push_back(std::move(bp));
    RELOPT_ASSIGN_OR_RETURN(HeapFile pp, ctx_->CreateScratchHeap());
    probe_parts_.push_back(std::move(pp));
  }
  JoinTable& rows = shared_->table(0);
  std::string record;
  for (size_t i = 0; i < rows.size(); ++i) {
    record.clear();
    for (const Value& v : rows.row(i)) v.SerializeTo(&record);
    RELOPT_ASSIGN_OR_RETURN(Rid rid, build_parts_[rows.hash(i) % num_spill_parts_].Insert(record));
    (void)rid;
  }
  rows = JoinTable{};
  RELOPT_RETURN_NOT_OK(probe_->Init());
  bool has = true;
  while (has) {
    RELOPT_ASSIGN_OR_RETURN(has, probe_->NextBatch(&probe_batch_));
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(probe_batch_, probe_keys_, exact_int_, &batch_keys_));
    for (size_t k = 0; k < probe_batch_.NumSelected(); ++k) {
      if (!batch_keys_[k].has_value()) continue;
      size_t p = GroupTable::Hash(*batch_keys_[k]) % num_spill_parts_;
      RELOPT_ASSIGN_OR_RETURN(Rid rid,
                              probe_parts_[p].Insert(probe_batch_.SelectedRow(k).Serialize()));
      (void)rid;
    }
  }
  probe_batch_.Clear();
  part_idx_ = 0;
  return LoadPartition();
}

Status HashJoinExecutor::LoadPartition() {
  JoinTable& table = shared_->table(0);
  part_probe_cursor_.reset();
  TupleBatch batch(ctx_->batch_size());
  std::vector<std::optional<std::string>> keys;
  while (part_idx_ < num_spill_parts_) {
    table.Clear();
    HeapFile::PageCursor cursor(&build_parts_[part_idx_]);
    RELOPT_RETURN_NOT_OK(cursor.Rewind());
    bool more = true;
    while (more) {
      batch.Clear();
      RELOPT_ASSIGN_OR_RETURN(
          more, cursor.NextBatch(all_build_columns_.size(), all_build_columns_, &batch));
      RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, build_keys_, exact_int_, &keys));
      for (size_t k = 0; k < batch.NumSelected(); ++k) {
        table.Add(batch.MutableRowAt(k), *keys[k], GroupTable::Hash(*keys[k]));
      }
    }
    table.Index();
    // Even an empty build partition must advance past its probe partition.
    if (!table.empty() || probe_parts_[part_idx_].NumPages() > 0) {
      part_probe_cursor_ = std::make_unique<HeapFile::PageCursor>(&probe_parts_[part_idx_]);
      probe_done_ = false;
      return part_probe_cursor_->Rewind();
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
      if (part_probe_cursor_ == nullptr) return false;
      RELOPT_ASSIGN_OR_RETURN(bool more,
                              part_probe_cursor_->NextBatch(all_probe_columns_.size(),
                                                            all_probe_columns_, &probe_batch_));
      probe_done_ = !more;
    }
  }
  RELOPT_RETURN_NOT_OK(ComputeJoinKeys(probe_batch_, probe_keys_, exact_int_, &batch_keys_));
  return true;
}

Result<bool> HashJoinExecutor::NextBatchImpl(TupleBatch* out) {
  return NextFiltered(&residual_, out, [&] { return NextCandidates(out); });
}

Result<bool> HashJoinExecutor::NextCandidates(TupleBatch* out) {
  while (true) {
    // Walk the current probe row's chain into the output batch.
    if (match_ != JoinTable::kEnd) {
      std::span<const Value> probe_row = probe_batch_.SelectedRow(probe_k_).values();
      const std::string& key = *batch_keys_[probe_k_];
      do {
        if (out->Full()) return true;
        std::span<const Value> build_row = match_table_->row(match_);
        if (output_probe_first_) {
          row_builder_.Build(probe_row, build_row, out->AppendRow());
        } else {
          row_builder_.Build(build_row, probe_row, out->AppendRow());
        }
        match_ = match_table_->FindNext(match_, key, probe_hash_);
      } while (match_ != JoinTable::kEnd);
    }
    // Advance to the next probe row with a precomputed key.
    if (probe_pos_ < probe_batch_.NumSelected()) {
      probe_k_ = probe_pos_++;
      const std::optional<std::string>& key = batch_keys_[probe_k_];
      if (!key.has_value()) continue;  // NULL keys never match
      probe_hash_ = GroupTable::Hash(*key);
      match_table_ = &shared_->table(shared_->PartitionOf(probe_hash_));
      match_ = match_table_->Find(*key, probe_hash_);
      continue;
    }
    RELOPT_ASSIGN_OR_RETURN(bool more, RefillProbeBatch());
    if (!more) return false;
  }
}

}  // namespace relopt
