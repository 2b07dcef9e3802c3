// Page constants and identifiers for the paged storage engine.
#pragma once

#include <cstdint>
#include <string>

namespace relopt {

/// Fixed page size. All storage cost accounting is in units of these pages,
/// matching the foundational cost models (page fetches as the cost unit).
constexpr size_t kPageSize = 4096;

using FileId = uint32_t;
using PageNo = uint32_t;

constexpr PageNo kInvalidPageNo = static_cast<PageNo>(-1);

/// Identifies a page: (file, page number within file).
struct PageId {
  FileId file_id = 0;
  PageNo page_no = kInvalidPageNo;

  bool IsValid() const { return page_no != kInvalidPageNo; }
  bool operator==(const PageId& other) const {
    return file_id == other.file_id && page_no == other.page_no;
  }
  std::string ToString() const {
    return "(" + std::to_string(file_id) + "," + std::to_string(page_no) + ")";
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    return (static_cast<size_t>(id.file_id) << 32) ^ id.page_no;
  }
};

/// Record identifier: page within a heap file plus slot index.
struct Rid {
  PageNo page_no = kInvalidPageNo;
  uint16_t slot = 0;

  bool IsValid() const { return page_no != kInvalidPageNo; }
  bool operator==(const Rid& other) const {
    return page_no == other.page_no && slot == other.slot;
  }
  bool operator<(const Rid& other) const {
    return page_no != other.page_no ? page_no < other.page_no : slot < other.slot;
  }
  std::string ToString() const {
    return "[" + std::to_string(page_no) + ":" + std::to_string(slot) + "]";
  }
  /// The RID as one non-negative int64, `page_no << 16 | slot`, which orders
  /// as the RIDs do: the value scans emit for a `#rid` column.
  int64_t Pack() const { return static_cast<int64_t>(page_no) << 16 | slot; }
  static Rid Unpack(int64_t packed) {
    return Rid{static_cast<PageNo>(packed >> 16), static_cast<uint16_t>(packed & 0xFFFF)};
  }
};

}  // namespace relopt
