#include "exec/external_sort.h"

#include <algorithm>
#include <cstring>

#include "types/key_codec.h"

namespace relopt {

namespace {

/// Run record layout: u32 key_len | key bytes | tuple bytes.
std::string EncodeRecord(const std::string& key, const Tuple& tuple) {
  std::string out;
  uint32_t len = static_cast<uint32_t>(key.size());
  out.append(reinterpret_cast<char*>(&len), 4);
  out += key;
  out += tuple.Serialize();
  return out;
}

Status DecodeRecord(std::string_view rec, size_t num_cols, std::string* key, Tuple* tuple) {
  if (rec.size() < 4) return Status::Internal("short sort-run record");
  uint32_t len;
  std::memcpy(&len, rec.data(), 4);
  if (rec.size() < 4 + len) return Status::Internal("short sort-run record");
  key->assign(rec.substr(4, len));
  return tuple->FillFrom(rec.substr(4 + len), num_cols);
}

std::vector<const Expression*> KeyExprs(const std::vector<SortKeySpec>& keys) {
  std::vector<const Expression*> exprs;
  exprs.reserve(keys.size());
  for (const SortKeySpec& k : keys) exprs.push_back(k.expr);
  return exprs;
}

std::vector<bool> KeyDescs(const std::vector<SortKeySpec>& keys) {
  std::vector<bool> desc;
  desc.reserve(keys.size());
  for (const SortKeySpec& k : keys) desc.push_back(k.desc);
  return desc;
}

}  // namespace

ExternalSortExecutor::ExternalSortExecutor(ExecContext* ctx, ExecutorPtr child,
                                           std::vector<SortKeySpec> keys)
    : Executor(ctx, child->schema()),
      child_(std::move(child)),
      keys_(std::move(keys)),
      key_encoder_(KeyExprs(keys_), KeyDescs(keys_)) {}

Status ExternalSortExecutor::FlushRun(std::vector<Item>* items) {
  std::sort(items->begin(), items->end(),
            [](const Item& a, const Item& b) { return a.key < b.key; });
  RELOPT_ASSIGN_OR_RETURN(HeapFile run, ctx_->CreateScratchHeap());
  for (const Item& item : *items) {
    RELOPT_ASSIGN_OR_RETURN(Rid rid, run.Insert(EncodeRecord(item.key, item.tuple)));
    (void)rid;
  }
  runs_.push_back(std::move(run));
  items->clear();
  return Status::OK();
}

Status ExternalSortExecutor::OpenCursors(std::span<const HeapFile> runs,
                                         std::vector<RunCursor>* cursors) {
  cursors->clear();
  cursors->resize(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    RunCursor& c = (*cursors)[i];
    c.pages = std::make_unique<HeapFile::PageCursor>(&runs[i], /*copy_pages=*/true);
    RELOPT_RETURN_NOT_OK(c.pages->Rewind());
    RELOPT_RETURN_NOT_OK(AdvanceCursor(&c));
  }
  return Status::OK();
}

Status ExternalSortExecutor::AdvanceCursor(RunCursor* cursor) {
  Rid rid;
  std::string_view bytes;
  RELOPT_ASSIGN_OR_RETURN(bool has, cursor->pages->Next(&rid, &bytes));
  if (!has) {
    cursor->exhausted = true;
    return Status::OK();
  }
  return DecodeRecord(bytes, num_cols_, &cursor->key, &cursor->tuple);
}

ExternalSortExecutor::RunCursor* ExternalSortExecutor::MinCursor(
    std::vector<RunCursor>* cursors) {
  RunCursor* best = nullptr;
  for (RunCursor& c : *cursors) {
    if (c.exhausted) continue;
    if (best == nullptr || c.key < best->key) best = &c;
  }
  return best;
}

Result<HeapFile> ExternalSortExecutor::MergeRuns(std::span<const HeapFile> inputs) {
  std::vector<RunCursor> cursors;
  RELOPT_RETURN_NOT_OK(OpenCursors(inputs, &cursors));
  RELOPT_ASSIGN_OR_RETURN(HeapFile out, ctx_->CreateScratchHeap());
  while (RunCursor* best = MinCursor(&cursors)) {
    RELOPT_ASSIGN_OR_RETURN(Rid rid, out.Insert(EncodeRecord(best->key, best->tuple)));
    (void)rid;
    RELOPT_RETURN_NOT_OK(AdvanceCursor(best));
  }
  return out;
}

Status ExternalSortExecutor::InitImpl() {
  // Release previous scratch runs on re-init.
  cursors_.clear();
  for (HeapFile& run : runs_) ctx_->ReleaseScratchHeap(run.file_id());
  runs_.clear();
  memory_items_.clear();
  memory_pos_ = 0;
  in_memory_ = false;
  num_spilled_runs_ = 0;
  merge_passes_ = 0;

  num_cols_ = child_->schema().NumColumns();
  RELOPT_RETURN_NOT_OK(child_->Init());

  const size_t budget = ctx_->operator_memory_pages() * kPageSize;
  size_t bytes = 0;
  // Adopt whole batches from the child and encode all their sort keys with
  // the compiled batch encoder — one tight loop per key expression. Moving
  // out of the batch slots is safe: NextBatch clears them before refilling.
  TupleBatch batch(ctx_->batch_size());
  std::vector<std::string> keys;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
    RELOPT_RETURN_NOT_OK(key_encoder_.Encode(batch, &keys));
    for (size_t k = 0; k < batch.NumSelected(); ++k) {
      Tuple& row = *batch.MutableRowAt(batch.selection()[k]);
      bytes += keys[k].size() + row.SerializedSize() + 32;
      memory_items_.push_back(Item{std::move(keys[k]), std::move(row)});
      if (bytes > budget) {
        RELOPT_RETURN_NOT_OK(FlushRun(&memory_items_));
        bytes = 0;
      }
    }
    if (!has) break;
  }

  if (runs_.empty()) {
    // Whole input fits: in-memory sort, no I/O.
    std::sort(memory_items_.begin(), memory_items_.end(),
              [](const Item& a, const Item& b) { return a.key < b.key; });
    in_memory_ = true;
    return Status::OK();
  }
  if (!memory_items_.empty()) {
    RELOPT_RETURN_NOT_OK(FlushRun(&memory_items_));
  }
  num_spilled_runs_ = runs_.size();

  // Multi-pass merge down to the fan-in, then stream the final merge.
  const size_t fanin = std::max<size_t>(2, ctx_->operator_memory_pages() - 1);
  while (runs_.size() > fanin) {
    ++merge_passes_;
    std::vector<HeapFile> next_runs;
    for (size_t i = 0; i < runs_.size(); i += fanin) {
      const size_t group = std::min(fanin, runs_.size() - i);
      RELOPT_ASSIGN_OR_RETURN(HeapFile merged,
                              MergeRuns(std::span<const HeapFile>(runs_).subspan(i, group)));
      next_runs.push_back(std::move(merged));
    }
    for (HeapFile& run : runs_) ctx_->ReleaseScratchHeap(run.file_id());
    runs_ = std::move(next_runs);
  }

  return OpenCursors(runs_, &cursors_);
}

Result<bool> ExternalSortExecutor::NextBatchImpl(TupleBatch* out) {
  // Fill the output batch straight from the sorted array or the run cursors.
  if (in_memory_) {
    while (!out->Full() && memory_pos_ < memory_items_.size()) {
      *out->AppendRow() = std::move(memory_items_[memory_pos_++].tuple);
    }
    return memory_pos_ < memory_items_.size();
  }
  while (!out->Full()) {
    RunCursor* best = MinCursor(&cursors_);
    if (best == nullptr) return false;
    *out->AppendRow() = std::move(best->tuple);
    RELOPT_RETURN_NOT_OK(AdvanceCursor(best));
  }
  return true;
}

}  // namespace relopt
