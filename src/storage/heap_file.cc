#include "storage/heap_file.h"

#include <cstring>
#include <mutex>
#include <shared_mutex>

#include "storage/slotted_page.h"
#include "types/tuple_batch.h"

namespace relopt {

HeapFile::HeapFile(BufferPool* pool, FileId file_id) : pool_(pool), file_id_(file_id) {
  size_t pages = pool_->disk()->NumPages(file_id_);
  if (pages > 0) {
    insert_hint_.store(static_cast<PageNo>(pages - 1), std::memory_order_relaxed);
  }
}

Result<HeapFile> HeapFile::Create(BufferPool* pool) {
  FileId id = pool->disk()->CreateFile();
  return HeapFile(pool, id);
}

size_t HeapFile::NumPages() const { return pool_->disk()->NumPages(file_id_); }

Result<Rid> HeapFile::Insert(std::string_view record) {
  // Try the hint page first.
  PageNo hint = insert_hint_.load(std::memory_order_relaxed);
  if (hint != kInvalidPageNo) {
    PageId pid{file_id_, hint};
    RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(pid));
    Result<uint16_t> slot{uint16_t{0}};
    bool fit;
    {
      std::unique_lock<std::shared_mutex> latch(frame->latch());
      SlottedPage page(frame->data());
      fit = page.HasRoomFor(record.size());
      if (fit) slot = page.Insert(record);
    }
    if (fit) {
      RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, slot.ok()));
      if (slot.ok()) return Rid{hint, *slot};
      return slot.status();
    }
    RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, false));
  }
  // Allocate a fresh page.
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->NewPage(file_id_));
  PageId pid = frame->page_id();
  Result<uint16_t> slot{uint16_t{0}};
  {
    std::unique_lock<std::shared_mutex> latch(frame->latch());
    SlottedPage page(frame->data());
    page.Init();
    slot = page.Insert(record);
  }
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, true));
  RELOPT_RETURN_NOT_OK(slot.status());
  insert_hint_.store(pid.page_no, std::memory_order_relaxed);
  return Rid{pid.page_no, *slot};
}

Result<std::string> HeapFile::Delete(Rid rid) {
  PageId pid{file_id_, rid.page_no};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(pid));
  std::string record;
  Status st;
  {
    std::unique_lock<std::shared_mutex> latch(frame->latch());
    SlottedPage page(frame->data());
    Result<std::string_view> live = page.Get(rid.slot);
    if (live.ok()) record = std::string(*live);
    st = live.ok() ? page.Delete(rid.slot) : live.status();
  }
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, st.ok()));
  RELOPT_RETURN_NOT_OK(st);
  return record;
}

Status HeapFile::PageCursor::Seek(PageNo begin, PageNo end) {
  RELOPT_RETURN_NOT_OK(Release());
  next_page_ = begin;
  end_page_ = end;
  return Status::OK();
}

Status HeapFile::PageCursor::OpenPage(PageNo page_no) {
  page_no_ = page_no;
  PageId pid{heap_->file_id(), page_no_};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, heap_->pool()->FetchPage(pid));
  if (copy_.empty()) {
    frame_ = frame;
    frame_->latch().lock_shared();
    latched_ = true;
    data_ = frame_->data();
  } else {
    {
      std::shared_lock<std::shared_mutex> latch(frame->latch());
      std::memcpy(copy_.data(), frame->data(), kPageSize);
    }
    RELOPT_RETURN_NOT_OK(heap_->pool()->UnpinPage(pid, false));
    data_ = copy_.data();
  }
  slot_ = 0;
  num_slots_ = SlottedPage(data_).NumSlots();
  return Status::OK();
}

Result<bool> HeapFile::PageCursor::Next(Rid* rid, std::string_view* record) {
  while (true) {
    if (data_ != nullptr) {
      Latch();
      SlottedPage page(data_);
      while (slot_ < num_slots_) {
        uint16_t s = slot_++;
        if (!page.IsLive(s)) continue;
        RELOPT_ASSIGN_OR_RETURN(*record, page.Get(s));
        *rid = Rid{page_no_, s};
        return true;
      }
      RELOPT_RETURN_NOT_OK(Release());
    }
    if (next_page_ >= end_page_) return false;
    RELOPT_RETURN_NOT_OK(OpenPage(next_page_++));
  }
}

namespace {

/// Appends `record` to `out` as NextBatch() and ReadBatch() decode it.
Status AppendRecord(std::string_view record, Rid rid, size_t num_fields,
                    std::span<const uint32_t> columns, TupleBatch* out, bool with_rid) {
  Tuple* row = out->AppendRow();
  RELOPT_RETURN_NOT_OK(row->FillFrom(record, num_fields, columns));
  if (with_rid) row->Append(Value::Int(rid.Pack()));
  return Status::OK();
}

}  // namespace

Result<bool> HeapFile::PageCursor::NextBatch(size_t num_fields,
                                             std::span<const uint32_t> columns, TupleBatch* out,
                                             bool with_rid) {
  auto fill = [&]() -> Result<bool> {
    Rid rid;
    std::string_view record;
    while (!out->Full()) {
      RELOPT_ASSIGN_OR_RETURN(bool has, Next(&rid, &record));
      if (!has) return false;
      RELOPT_RETURN_NOT_OK(AppendRecord(record, rid, num_fields, columns, out, with_rid));
    }
    return true;
  };
  Result<bool> more = fill();
  Unlatch();
  return more;
}

Result<std::string_view> HeapFile::PageCursor::Read(Rid rid) {
  next_page_ = end_page_;
  if (data_ != nullptr && page_no_ == rid.page_no) {
    Latch();
  } else {
    RELOPT_RETURN_NOT_OK(Release());
    RELOPT_RETURN_NOT_OK(OpenPage(rid.page_no));
  }
  slot_ = num_slots_;  // a Next() leaves the page
  return SlottedPage(data_).Get(rid.slot);
}

Status HeapFile::PageCursor::ReadBatch(std::span<const Rid> rids, size_t num_fields,
                                       std::span<const uint32_t> columns, TupleBatch* out,
                                       bool with_rid) {
  auto fill = [&]() -> Status {
    for (Rid rid : rids) {
      RELOPT_ASSIGN_OR_RETURN(std::string_view record, Read(rid));
      RELOPT_RETURN_NOT_OK(AppendRecord(record, rid, num_fields, columns, out, with_rid));
    }
    return Status::OK();
  };
  Status st = fill();
  RELOPT_RETURN_NOT_OK(Release());
  return st;
}

void HeapFile::PageCursor::Latch() {
  if (frame_ == nullptr || latched_) return;
  frame_->latch().lock_shared();
  latched_ = true;
}

void HeapFile::PageCursor::Unlatch() {
  if (!latched_) return;
  frame_->latch().unlock_shared();
  latched_ = false;
}

Status HeapFile::PageCursor::Release() {
  Unlatch();
  data_ = nullptr;
  if (frame_ == nullptr) return Status::OK();
  frame_ = nullptr;
  return heap_->pool()->UnpinPage(PageId{heap_->file_id(), page_no_}, false);
}

Status HeapFile::PageCursor::Close() {
  next_page_ = end_page_;
  return Release();
}

}  // namespace relopt
