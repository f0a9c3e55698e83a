#include "storage/page.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/crc32c.h"
#include "common/logging.h"

namespace pglo {

namespace {
constexpr uint16_t kPageMagic = 0x5047;  // "PG"
// Header field offsets.
constexpr uint32_t kOffMagic = 0;
constexpr uint32_t kOffFlags = 2;
constexpr uint32_t kOffLower = 4;
constexpr uint32_t kOffUpper = 6;
constexpr uint32_t kOffSpecial = 8;
constexpr uint32_t kOffLsn = 12;
constexpr uint32_t kOffChecksum = 20;
}  // namespace

void SlottedPage::Init(uint16_t special_size) {
  PGLO_CHECK(special_size < kPageSize - kHeaderSize);
  std::memset(buf_, 0, kPageSize);
  EncodeFixed16(buf_ + kOffMagic, kPageMagic);
  EncodeFixed16(buf_ + kOffFlags, 0);
  set_lower(kHeaderSize);
  uint16_t special_off = static_cast<uint16_t>(kPageSize - special_size);
  EncodeFixed16(buf_ + kOffSpecial, special_off);
  set_upper(special_off);
  EncodeFixed64(buf_ + kOffLsn, 0);
}

bool SlottedPage::IsInitialized() const {
  return DecodeFixed16(buf_ + kOffMagic) == kPageMagic;
}

uint16_t SlottedPage::lower() const { return DecodeFixed16(buf_ + kOffLower); }
uint16_t SlottedPage::upper() const { return DecodeFixed16(buf_ + kOffUpper); }
void SlottedPage::set_lower(uint16_t v) { EncodeFixed16(buf_ + kOffLower, v); }
void SlottedPage::set_upper(uint16_t v) { EncodeFixed16(buf_ + kOffUpper, v); }

uint16_t SlottedPage::SpecialSize() const {
  return static_cast<uint16_t>(kPageSize - DecodeFixed16(buf_ + kOffSpecial));
}

uint8_t* SlottedPage::SpecialArea() {
  return buf_ + DecodeFixed16(buf_ + kOffSpecial);
}
const uint8_t* SlottedPage::SpecialArea() const {
  return buf_ + DecodeFixed16(buf_ + kOffSpecial);
}

uint16_t SlottedPage::NumSlots() const {
  return static_cast<uint16_t>((lower() - kHeaderSize) / kSlotSize);
}

void SlottedPage::ReadSlot(uint16_t slot, uint16_t* off, uint16_t* len,
                           uint16_t* state) const {
  const uint8_t* p = buf_ + kHeaderSize + slot * kSlotSize;
  *off = DecodeFixed16(p);
  *len = DecodeFixed16(p + 2);
  *state = DecodeFixed16(p + 4);
}

void SlottedPage::WriteSlot(uint16_t slot, uint16_t off, uint16_t len,
                            uint16_t state) {
  uint8_t* p = buf_ + kHeaderSize + slot * kSlotSize;
  EncodeFixed16(p, off);
  EncodeFixed16(p + 2, len);
  EncodeFixed16(p + 4, state);
}

SlottedPage::SlotState SlottedPage::GetSlotState(uint16_t slot) const {
  if (slot >= NumSlots()) return kUnused;
  uint16_t off, len, state;
  ReadSlot(slot, &off, &len, &state);
  return static_cast<SlotState>(state);
}

uint32_t SlottedPage::FreeSpace() const {
  uint32_t gap = upper() - lower();
  return gap;
}

uint32_t SlottedPage::FreeSpaceAfterCompact() const {
  uint32_t free = FreeSpace();
  uint16_t n = NumSlots();
  for (uint16_t i = 0; i < n; ++i) {
    uint16_t off, len, state;
    ReadSlot(i, &off, &len, &state);
    if (state == kDead) free += len;
  }
  return free;
}

Result<uint16_t> SlottedPage::AddItem(Slice item) {
  if (item.size() > MaxItemSize()) {
    return Status::InvalidArgument("item larger than page capacity");
  }
  // Prefer to recycle a dead slot's line pointer.
  uint16_t n = NumSlots();
  uint16_t target = n;
  for (uint16_t i = 0; i < n; ++i) {
    uint16_t off, len, state;
    ReadSlot(i, &off, &len, &state);
    if (state == kDead && len == 0) {  // dead and already compacted away
      target = i;
      break;
    }
  }
  uint32_t need = static_cast<uint32_t>(item.size()) +
                  (target == n ? kSlotSize : 0);
  if (FreeSpace() < need) {
    if (FreeSpaceAfterCompact() < need) {
      return Status::ResourceExhausted("page full");
    }
    Compact();
    // Compacting may have zeroed a dead slot we can now recycle.
    if (target == n) {
      for (uint16_t i = 0; i < n; ++i) {
        uint16_t off, len, state;
        ReadSlot(i, &off, &len, &state);
        if (state == kDead && len == 0) {
          target = i;
          need = static_cast<uint32_t>(item.size());
          break;
        }
      }
    }
    if (FreeSpace() < need) {
      return Status::ResourceExhausted("page full");
    }
  }
  uint16_t new_upper = static_cast<uint16_t>(upper() - item.size());
  // An empty item may carry a null data pointer, which memcpy must not see.
  if (!item.empty()) std::memcpy(buf_ + new_upper, item.data(), item.size());
  set_upper(new_upper);
  if (target == n) {
    set_lower(static_cast<uint16_t>(lower() + kSlotSize));
  }
  WriteSlot(target, new_upper, static_cast<uint16_t>(item.size()), kNormal);
  return target;
}

Result<Slice> SlottedPage::GetItem(uint16_t slot) const {
  if (slot >= NumSlots()) return Status::NotFound("slot out of range");
  uint16_t off, len, state;
  ReadSlot(slot, &off, &len, &state);
  if (state != kNormal) return Status::NotFound("slot not live");
  return Slice(buf_ + off, len);
}

Status SlottedPage::DeleteItem(uint16_t slot) {
  if (slot >= NumSlots()) return Status::NotFound("slot out of range");
  uint16_t off, len, state;
  ReadSlot(slot, &off, &len, &state);
  if (state != kNormal) return Status::NotFound("slot not live");
  WriteSlot(slot, off, len, kDead);
  return Status::OK();
}

Status SlottedPage::OverwriteItem(uint16_t slot, Slice item) {
  if (slot >= NumSlots()) return Status::NotFound("slot out of range");
  uint16_t off, len, state;
  ReadSlot(slot, &off, &len, &state);
  if (state != kNormal) return Status::NotFound("slot not live");
  if (item.size() > len) {
    return Status::InvalidArgument("in-place overwrite cannot grow an item");
  }
  if (!item.empty()) std::memcpy(buf_ + off, item.data(), item.size());
  WriteSlot(slot, off, static_cast<uint16_t>(item.size()), kNormal);
  return Status::OK();
}

void SlottedPage::Compact() {
  struct Live {
    uint16_t slot;
    uint16_t off;
    uint16_t len;
  };
  uint16_t n = NumSlots();
  std::vector<Live> live;
  live.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    uint16_t off, len, state;
    ReadSlot(i, &off, &len, &state);
    if (state == kNormal) {
      live.push_back({i, off, len});
    } else if (state == kDead && len != 0) {
      WriteSlot(i, 0, 0, kDead);  // release its storage
    }
  }
  // Repack highest-offset first so moves never overlap destructively.
  std::sort(live.begin(), live.end(),
            [](const Live& a, const Live& b) { return a.off > b.off; });
  uint16_t special_off = DecodeFixed16(buf_ + kOffSpecial);
  uint16_t dst = special_off;
  for (const Live& item : live) {
    dst = static_cast<uint16_t>(dst - item.len);
    std::memmove(buf_ + dst, buf_ + item.off, item.len);
    WriteSlot(item.slot, dst, item.len, kNormal);
  }
  set_upper(dst);
}

void SlottedPage::UpdateChecksum() {
  EncodeFixed32(buf_ + kOffChecksum, 0);
  uint32_t crc = crc32c::Value(buf_, kPageSize);
  EncodeFixed32(buf_ + kOffChecksum, crc32c::Mask(crc));
}

bool SlottedPage::VerifyChecksum() const {
  uint32_t stored = DecodeFixed32(buf_ + kOffChecksum);
  if (stored == 0) return true;  // never checksummed (fresh page)
  // The CRC UpdateChecksum took, over the page with its checksum field
  // zeroed, extended piece by piece so the page is never copied.
  static constexpr uint8_t kZeroField[4] = {};
  constexpr size_t kAfterField = kOffChecksum + sizeof(kZeroField);
  uint32_t crc = crc32c::Value(buf_, kOffChecksum);
  crc = crc32c::Extend(crc, kZeroField, sizeof(kZeroField));
  crc = crc32c::Extend(crc, buf_ + kAfterField, kPageSize - kAfterField);
  return crc32c::Unmask(stored) == crc;
}

}  // namespace pglo
