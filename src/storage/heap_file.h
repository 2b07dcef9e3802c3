// HeapFile: unordered collection of records in slotted pages.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/result.h"

namespace relopt {

/// \brief A heap of variable-length records over one DiskManager file.
///
/// Records are appended to the last page with room (append-only placement —
/// the classic heap organization the foundational cost models assume, where
/// |pages| ~= N · record_size / page_size). Deletes leave holes.
class HeapFile {
 public:
  /// Opens (or starts) a heap over `file_id`, which must exist in the disk
  /// manager. A brand-new file gets its first page lazily on insert.
  HeapFile(BufferPool* pool, FileId file_id);

  /// Creates a new file in `disk` and a heap over it.
  static Result<HeapFile> Create(BufferPool* pool);

  // A HeapFile is a lightweight handle (pool + file id + hint); copies are
  // views of the same file. Spelled out because the hint is atomic. Copying
  // a heap that other threads are actively using is not supported.
  HeapFile(const HeapFile& other)
      : pool_(other.pool_),
        file_id_(other.file_id_),
        insert_hint_(other.insert_hint_.load(std::memory_order_relaxed)) {}
  HeapFile& operator=(const HeapFile& other) {
    pool_ = other.pool_;
    file_id_ = other.file_id_;
    insert_hint_.store(other.insert_hint_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  FileId file_id() const { return file_id_; }
  BufferPool* pool() const { return pool_; }

  /// Number of pages in the heap.
  size_t NumPages() const;

  /// Inserts a record, returning its RID.
  Result<Rid> Insert(std::string_view record);

  /// Reads the record at `rid` into an owned string.
  Result<std::string> Get(Rid rid) const;

  /// Deletes the record at `rid`.
  Status Delete(Rid rid);

  /// \brief Forward scanner over all live records, page at a time.
  ///
  /// Usage:
  ///   HeapFile::Iterator it(heap);
  ///   while (true) {
  ///     RELOPT_ASSIGN_OR_RETURN(bool has, it.Next(&rid, &bytes));
  ///     if (!has) break; ...
  ///   }
  class Iterator {
   public:
    explicit Iterator(const HeapFile* heap);

    /// Advances to the next live record. Returns false at end.
    Result<bool> Next(Rid* rid, std::string* record);

    /// Restarts the scan from the beginning.
    void Reset();

   private:
    const HeapFile* heap_;
    PageNo page_no_ = 0;
    uint16_t slot_ = 0;
  };

  /// \brief Pins one page at a time and yields zero-copy views of its live
  /// records.
  ///
  /// Unlike Iterator (which re-pins the page and copies the bytes into an
  /// owned string for every record), the cursor holds the open page pinned
  /// until Open()/Close(), so a scan costs one pool access per page and zero
  /// allocations per record. Views returned by Next() stay valid until the
  /// page is released. The page is read under its shared latch, taken by
  /// Open() (and by Next() after an Unlatch()) and held until Unlatch() or
  /// Close(). Scans and same-heap writers never run concurrently in this
  /// engine; the shared latch makes that assumption checkable under TSan.
  class PageCursor {
   public:
    explicit PageCursor(const HeapFile* heap) : heap_(heap) {}
    ~PageCursor() { (void)Close(); }

    PageCursor(const PageCursor&) = delete;
    PageCursor& operator=(const PageCursor&) = delete;

    /// Pins `page_no` (releasing any open page) and rewinds to its first slot.
    Status Open(PageNo page_no);
    /// Next live record of the open page; false once the page is exhausted
    /// (the page stays pinned until Close/Open so views remain valid).
    Result<bool> Next(Rid* rid, std::string_view* record);
    /// Unpins the open page; idempotent.
    Status Close();
    bool IsOpen() const { return frame_ != nullptr; }
    /// Releases the shared latch but keeps the page pinned and the position;
    /// the next Next() re-takes it. Scans unlatch before returning a batch,
    /// so no latch is held while the consumer reads other pages: a join
    /// reading its outer row by row would otherwise order one page's latch
    /// before another's, and the reverse a page later.
    void Unlatch();

   private:
    const HeapFile* heap_;
    PageFrame* frame_ = nullptr;
    bool latched_ = false;
    PageNo page_no_ = 0;
    uint16_t slot_ = 0;
    uint16_t num_slots_ = 0;
  };

 private:
  BufferPool* pool_;
  FileId file_id_;
  // Hint: page most likely to have room (last page we inserted into).
  // Atomic so concurrent inserters race benignly (a stale hint only costs an
  // extra fit check, never correctness).
  std::atomic<PageNo> insert_hint_{kInvalidPageNo};
};

}  // namespace relopt
