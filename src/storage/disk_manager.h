// DiskManager: the simulated disk — in-memory paged files with I/O counters.
//
// Substitution note (see DESIGN.md): the 1977-era evaluations measure cost in
// page accesses, so an in-memory store that *counts* page reads and writes
// reproduces exactly the quantity of interest, deterministically and at
// laptop scale.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "storage/io_counters.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace relopt {

/// Aggregate I/O counters.
struct IoStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pages_allocated = 0;

  uint64_t total() const { return page_reads + page_writes; }
};

/// \brief Manages a set of paged "files" held in memory, counting every page
/// read/write. Thread-safe: page reads and size queries share one
/// reader-writer lock, while page writes and every change to the file map take
/// it exclusively; all counters are atomic (plus thread-local tallies for
/// attribution).
class DiskManager {
 public:
  DiskManager() = default;
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Creates an empty file and returns its id.
  FileId CreateFile();

  /// Removes a file and frees its pages. Idempotent.
  void DeleteFile(FileId file_id);

  /// True if the file exists.
  bool FileExists(FileId file_id) const;

  /// Appends a zeroed page to the file; returns its page number.
  Result<PageNo> AllocatePage(FileId file_id);

  /// Copies a page's 4 KiB into `out`. Counts one page read.
  Status ReadPage(PageId page_id, char* out);

  /// Overwrites a page from `data` (4 KiB). Counts one page write.
  Status WritePage(PageId page_id, const char* data);

  /// Number of pages currently in the file (0 if absent).
  size_t NumPages(FileId file_id) const;

  /// Snapshot of the global counters since construction or last ResetStats().
  IoStats stats() const;
  /// Per-file counters (zeroes if absent).
  IoStats FileStats(FileId file_id) const;
  void ResetStats();

 private:
  struct File {
    std::vector<std::unique_ptr<char[]>> pages;
    std::atomic<uint64_t> page_reads{0};
    std::atomic<uint64_t> page_writes{0};
    std::atomic<uint64_t> pages_allocated{0};
  };

  /// Requires `mu_` held (shared suffices).
  Result<File*> GetFileLocked(FileId file_id);

  /// Shared: page reads and size queries. Exclusive: page writes and changes
  /// to files_, next_file_id_ or a file's page list.
  mutable std::shared_mutex mu_;
  std::unordered_map<FileId, File> files_;
  FileId next_file_id_ = 1;
  std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_writes_{0};
  std::atomic<uint64_t> pages_allocated_{0};
};

}  // namespace relopt
