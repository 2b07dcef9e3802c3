// SlottedPage: variable-length record layout within one 4 KiB page.
//
// Layout:
//   [header: num_slots u16 | free_end u16]
//   [slot 0: offset u16 | length u16] [slot 1] ...        (grows forward)
//   ... free space ...
//   [record data]                                          (grows backward)
//
// A deleted slot has offset == kDeletedOffset; slot ids stay stable so RIDs
// remain valid. Deleted space is not compacted (documented simplification;
// the engine's workloads are append-then-read).
#pragma once

#include <cstdint>
#include <string_view>

#include "storage/page.h"
#include "util/result.h"

namespace relopt {

/// \brief View over a raw page buffer providing slotted-record access.
/// Does not own the buffer; the caller keeps the page pinned while using it.
class SlottedPage {
 private:
  static constexpr size_t kHeaderSize = 4;      // num_slots + free_end
  static constexpr size_t kSlotSize = 4;        // offset + length

 public:
  static constexpr uint16_t kDeletedOffset = 0xFFFF;
  /// Longest record that fits an empty page; Insert rejects longer ones.
  static constexpr size_t kMaxRecordSize = kPageSize - kHeaderSize - kSlotSize;

  /// Wraps an existing page buffer (must be kPageSize bytes).
  explicit SlottedPage(char* data) : data_(data) {}

  /// Initializes an empty page (call once on a freshly allocated page).
  void Init();

  /// Number of slots ever allocated (including deleted).
  uint16_t NumSlots() const;

  /// Bytes available for one more record (includes its slot entry).
  size_t FreeSpace() const;

  /// True if a record of `length` bytes fits.
  bool HasRoomFor(size_t length) const;

  /// Inserts a record; returns its slot id, or ResourceExhausted if full.
  Result<uint16_t> Insert(std::string_view record);

  /// Returns the record bytes; NotFound for deleted/invalid slots.
  Result<std::string_view> Get(uint16_t slot) const;

  /// Marks a slot deleted; NotFound for already-deleted/invalid slots.
  Status Delete(uint16_t slot);

  /// True if the slot holds a live record.
  bool IsLive(uint16_t slot) const;

  /// Number of live (non-deleted) records.
  uint16_t NumLive() const;

 private:
  uint16_t ReadU16(size_t pos) const;
  void WriteU16(size_t pos, uint16_t v);

  uint16_t FreeEnd() const { return ReadU16(2); }

  char* data_;
};

}  // namespace relopt
