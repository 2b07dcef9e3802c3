// HeapFile: unordered collection of records in slotted pages.
#pragma once

#include <atomic>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/result.h"

namespace relopt {

class TupleBatch;

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

  /// Deletes the record at `rid` and returns its bytes.
  Result<std::string> Delete(Rid rid);

  /// \brief The one heap reader: walks a range of the heap's pages, or reads
  /// records by RID, and yields zero-copy views of live records, one pool
  /// access per page.
  ///
  /// Sequential scans (UPDATE and DELETE's among them), ANALYZE, the index
  /// backfill, Grace partitions and sort runs walk pages; index scans and
  /// index nested-loop joins read by RID. Between calls it
  /// holds at most one page pinned: the page it is reading. It reads that
  /// page under the page's shared latch, taken when a call first reads the
  /// page and held until NextBatch() or ReadBatch() returns, the cursor
  /// leaves the page or Close(). No heap latch may be held while another
  /// page is latched or written (a join reading its outer row by row would
  /// otherwise order one page's latch before another's, and the reverse a
  /// page later), so readers that touch other pages between calls read
  /// through NextBatch() or ReadBatch().
  /// Views returned by Next() stay valid until the cursor leaves the page.
  /// Scans and same-heap writers never run concurrently in this engine; the
  /// shared latch makes that assumption checkable under TSan.
  ///
  /// A cursor made with `copy_pages` reads each page into its own memory
  /// and unpins it at once, so it holds no pin and no latch between calls:
  /// a sort merge keeps one cursor per run, and its fan-in counts one buffer
  /// page per run, not one pinned frame.
  class PageCursor {
   public:
    /// A cursor with no walk; Seek() or Rewind() starts one.
    explicit PageCursor(const HeapFile* heap, bool copy_pages = false)
        : heap_(heap), copy_(copy_pages ? kPageSize : 0) {}
    ~PageCursor() { (void)Close(); }

    PageCursor(const PageCursor&) = delete;
    PageCursor& operator=(const PageCursor&) = delete;

    /// Starts a walk over pages [begin, end), releasing the open page.
    Status Seek(PageNo begin, PageNo end);
    /// Starts a walk over every page the heap has now.
    Status Rewind() { return Seek(0, static_cast<PageNo>(heap_->NumPages())); }
    /// Next live record of the walk, moving page to page; false once the
    /// walk is over, when no page stays pinned.
    Result<bool> Next(Rid* rid, std::string_view* record);
    /// Appends the walk's next records to `out`, each decoded into
    /// `num_cols` values and, `with_rid`, one more: its packed RID
    /// (Rid::Pack), until `out` is full. Unlatches before it returns. False
    /// once the walk is over.
    Result<bool> NextBatch(size_t num_cols, TupleBatch* out, bool with_rid = false);
    /// The live record at `rid`, read from the open page if `rid` is on it
    /// and from a fetch of its page otherwise. Ends any walk. The view stays
    /// valid as Next()'s do.
    Result<std::string_view> Read(Rid rid);
    /// Appends the records at `rids` to `out`, decoded as NextBatch() does;
    /// `out` must have room for them. Fetches each page once per run of
    /// RIDs on it, and holds no pin or latch once it returns.
    Status ReadBatch(std::span<const Rid> rids, size_t num_cols, TupleBatch* out,
                     bool with_rid = false);
    /// Releases the open page and ends the walk; idempotent.
    Status Close();

   private:
    /// Releases the shared latch but keeps the page pinned and the position;
    /// the next Next() re-takes it.
    void Unlatch();
    /// Re-takes the open page's shared latch if Unlatch() dropped it.
    void Latch();
    /// Unlatches and unpins the open page; the walk goes on.
    Status Release();
    /// Opens page `page_no` (pinned and latched, or copied) at its first slot.
    Status OpenPage(PageNo page_no);

    const HeapFile* heap_;
    std::vector<char> copy_;       ///< a copying cursor's open page
    char* data_ = nullptr;         ///< the open page's bytes; null when none is open
    PageFrame* frame_ = nullptr;   ///< the pinned open page; null for a copying cursor
    bool latched_ = false;
    PageNo page_no_ = 0;           ///< the open page
    PageNo next_page_ = 0;         ///< the walk's remaining pages are [next_page_, end_page_)
    PageNo end_page_ = 0;
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
