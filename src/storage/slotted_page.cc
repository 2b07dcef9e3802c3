#include "storage/slotted_page.h"

#include <cstring>

namespace relopt {

void SlottedPage::Init() {
  WriteU16(0, 0);                                   // num_slots
  WriteU16(2, static_cast<uint16_t>(kPageSize));    // free_end
}

uint16_t SlottedPage::ReadU16(size_t pos) const {
  uint16_t v;
  std::memcpy(&v, data_ + pos, sizeof(v));
  return v;
}

void SlottedPage::WriteU16(size_t pos, uint16_t v) { std::memcpy(data_ + pos, &v, sizeof(v)); }

uint16_t SlottedPage::NumSlots() const { return ReadU16(0); }

size_t SlottedPage::FreeSpace() const {
  size_t slots_end = kHeaderSize + static_cast<size_t>(NumSlots()) * kSlotSize;
  size_t free_end = FreeEnd();
  return free_end > slots_end ? free_end - slots_end : 0;
}

bool SlottedPage::HasRoomFor(size_t length) const {
  return FreeSpace() >= length + kSlotSize;
}

Result<uint16_t> SlottedPage::Insert(std::string_view record) {
  if (record.size() > kMaxRecordSize) {
    return Status::InvalidArgument("record of " + std::to_string(record.size()) +
                                   " bytes exceeds page capacity");
  }
  if (!HasRoomFor(record.size())) {
    return Status::ResourceExhausted("page full");
  }
  uint16_t slot = NumSlots();
  uint16_t new_free_end = static_cast<uint16_t>(FreeEnd() - record.size());
  std::memcpy(data_ + new_free_end, record.data(), record.size());
  size_t slot_pos = kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
  WriteU16(slot_pos, new_free_end);
  WriteU16(slot_pos + 2, static_cast<uint16_t>(record.size()));
  WriteU16(0, static_cast<uint16_t>(slot + 1));
  WriteU16(2, new_free_end);
  return slot;
}

Result<std::string_view> SlottedPage::Get(uint16_t slot) const {
  if (slot >= NumSlots()) return Status::NotFound("slot out of range");
  size_t slot_pos = kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
  uint16_t offset = ReadU16(slot_pos);
  if (offset == kDeletedOffset) return Status::NotFound("slot deleted");
  uint16_t length = ReadU16(slot_pos + 2);
  return std::string_view(data_ + offset, length);
}

Status SlottedPage::Delete(uint16_t slot) {
  if (slot >= NumSlots()) return Status::NotFound("slot out of range");
  size_t slot_pos = kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
  if (ReadU16(slot_pos) == kDeletedOffset) return Status::NotFound("slot already deleted");
  WriteU16(slot_pos, kDeletedOffset);
  return Status::OK();
}

bool SlottedPage::IsLive(uint16_t slot) const {
  if (slot >= NumSlots()) return false;
  size_t slot_pos = kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
  return ReadU16(slot_pos) != kDeletedOffset;
}

uint16_t SlottedPage::NumLive() const {
  uint16_t live = 0;
  for (uint16_t s = 0; s < NumSlots(); ++s) {
    if (IsLive(s)) ++live;
  }
  return live;
}

}  // namespace relopt
