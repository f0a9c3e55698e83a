#include <gtest/gtest.h>

#include <map>

#include "common/bytes.h"
#include "common/random.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : buf_{}, page_(buf_) { page_.Init(); }
  uint8_t buf_[kPageSize];
  SlottedPage page_;
};

TEST_F(SlottedPageTest, FreshPageState) {
  EXPECT_TRUE(page_.IsInitialized());
  EXPECT_EQ(page_.NumSlots(), 0);
  EXPECT_EQ(page_.FreeSpace(),
            kPageSize - SlottedPage::kHeaderSize);
}

TEST_F(SlottedPageTest, AddAndGet) {
  ASSERT_OK_AND_ASSIGN(uint16_t slot, page_.AddItem(Slice("hello")));
  EXPECT_EQ(slot, 0);
  ASSERT_OK_AND_ASSIGN(Slice item, page_.GetItem(slot));
  EXPECT_EQ(item.ToString(), "hello");
}

TEST_F(SlottedPageTest, MultipleItemsKeepSlots) {
  for (int i = 0; i < 10; ++i) {
    std::string payload = "item-" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(uint16_t slot, page_.AddItem(Slice(payload)));
    EXPECT_EQ(slot, i);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Slice item, page_.GetItem(i));
    EXPECT_EQ(item.ToString(), "item-" + std::to_string(i));
  }
}

TEST_F(SlottedPageTest, DeleteHidesItem) {
  ASSERT_OK_AND_ASSIGN(uint16_t slot, page_.AddItem(Slice("gone")));
  ASSERT_OK(page_.DeleteItem(slot));
  EXPECT_TRUE(page_.GetItem(slot).status().IsNotFound());
  EXPECT_TRUE(page_.DeleteItem(slot).IsNotFound());
  EXPECT_EQ(page_.GetSlotState(slot), SlottedPage::kDead);
}

TEST_F(SlottedPageTest, GetOutOfRangeSlot) {
  EXPECT_TRUE(page_.GetItem(99).status().IsNotFound());
}

TEST_F(SlottedPageTest, OverwriteSameOrSmaller) {
  ASSERT_OK_AND_ASSIGN(uint16_t slot, page_.AddItem(Slice("0123456789")));
  ASSERT_OK(page_.OverwriteItem(slot, Slice("abcde")));
  ASSERT_OK_AND_ASSIGN(Slice item, page_.GetItem(slot));
  EXPECT_EQ(item.ToString(), "abcde");
  EXPECT_TRUE(
      page_.OverwriteItem(slot, Slice("this is far too long"))
          .IsInvalidArgument());
}

TEST_F(SlottedPageTest, FillToCapacityThenFail) {
  Bytes item(100, 0xAB);
  int added = 0;
  for (;;) {
    Result<uint16_t> slot = page_.AddItem(Slice(item));
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsResourceExhausted());
      break;
    }
    ++added;
  }
  // 8168 usable bytes / 106 per item (100 + 6-byte slot) = 77 items.
  EXPECT_EQ(added, 77);
}

TEST_F(SlottedPageTest, MaxItemFitsExactly) {
  Bytes item(SlottedPage::MaxItemSize(), 0x5A);
  ASSERT_OK(page_.AddItem(Slice(item)).status());
  EXPECT_TRUE(page_.AddItem(Slice("x")).status().IsResourceExhausted());
  Bytes too_big(SlottedPage::MaxItemSize() + 1, 0);
  EXPECT_TRUE(page_.AddItem(Slice(too_big)).status().IsInvalidArgument());
}

TEST_F(SlottedPageTest, CompactReclaimsDeadSpace) {
  Bytes big(3000, 0x11);
  ASSERT_OK_AND_ASSIGN(uint16_t a, page_.AddItem(Slice(big)));
  ASSERT_OK_AND_ASSIGN(uint16_t b, page_.AddItem(Slice(big)));
  // A third 3000-byte item does not fit (8168 - 6012 < 3006)...
  EXPECT_FALSE(page_.AddItem(Slice(big)).ok());
  ASSERT_OK(page_.DeleteItem(a));
  // ...but after the delete, AddItem compacts internally and succeeds.
  ASSERT_OK_AND_ASSIGN(uint16_t c, page_.AddItem(Slice(big)));
  // Slot of the dead item gets recycled.
  EXPECT_EQ(c, a);
  ASSERT_OK_AND_ASSIGN(Slice item_b, page_.GetItem(b));
  EXPECT_EQ(item_b.size(), 3000u);
  EXPECT_EQ(item_b[0], 0x11);
}

TEST_F(SlottedPageTest, CompactPreservesSurvivors) {
  std::vector<uint16_t> slots;
  for (int i = 0; i < 20; ++i) {
    std::string payload(200, static_cast<char>('a' + i));
    ASSERT_OK_AND_ASSIGN(uint16_t slot, page_.AddItem(Slice(payload)));
    slots.push_back(slot);
  }
  for (int i = 0; i < 20; i += 2) {
    ASSERT_OK(page_.DeleteItem(slots[i]));
  }
  page_.Compact();
  for (int i = 1; i < 20; i += 2) {
    ASSERT_OK_AND_ASSIGN(Slice item, page_.GetItem(slots[i]));
    EXPECT_EQ(item.size(), 200u);
    EXPECT_EQ(item[0], static_cast<uint8_t>('a' + i));
  }
}

TEST_F(SlottedPageTest, SpecialAreaPreserved) {
  SlottedPage page(buf_);
  page.Init(/*special_size=*/16);
  std::memcpy(page.SpecialArea(), "0123456789abcdef", 16);
  Bytes item(1000, 0x77);
  for (int i = 0; i < 8; ++i) {
    if (!page.AddItem(Slice(item)).ok()) break;
  }
  EXPECT_EQ(std::memcmp(page.SpecialArea(), "0123456789abcdef", 16), 0);
  EXPECT_EQ(page.SpecialSize(), 16);
}

TEST_F(SlottedPageTest, ChecksumDetectsCorruption) {
  ASSERT_OK(page_.AddItem(Slice("important data")).status());
  page_.UpdateChecksum();
  EXPECT_TRUE(page_.VerifyChecksum());
  buf_[5000] ^= 0xFF;
  EXPECT_FALSE(page_.VerifyChecksum());
}

TEST_F(SlottedPageTest, ChecksumValueIsPinned) {
  // The stored checksum of a fixed page, as the table-only CRC and the
  // zeroed-copy verifier produced it: the on-disk format is unchanged.
  constexpr size_t kOffChecksum = 20;
  ASSERT_OK(page_.AddItem(Slice("pinned checksum payload")).status());
  page_.UpdateChecksum();
  EXPECT_EQ(DecodeFixed32(buf_ + kOffChecksum), 0xb083c4b5u);
  EXPECT_TRUE(page_.VerifyChecksum());
  // The verifier covers the bytes before, inside and after the field.
  for (size_t off : {size_t{3}, kOffChecksum + 1, size_t{kPageSize} - 1}) {
    buf_[off] ^= 0x01;
    EXPECT_FALSE(page_.VerifyChecksum()) << "byte " << off;
    buf_[off] ^= 0x01;
  }
  EXPECT_TRUE(page_.VerifyChecksum());
}

TEST_F(SlottedPageTest, UncheckedPageVerifies) {
  // A page that was never checksummed reports clean (checksum field 0).
  EXPECT_TRUE(page_.VerifyChecksum());
}

// Property test: random add/delete/overwrite against a std::map reference.
class SlottedPageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlottedPageFuzz, MatchesReferenceModel) {
  uint8_t buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  Random rng(GetParam());
  std::map<uint16_t, Bytes> model;

  for (int step = 0; step < 2000; ++step) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 5) {  // add
      Bytes item = rng.RandomBytes(rng.Range(0, 300));
      Result<uint16_t> slot = page.AddItem(Slice(item));
      if (slot.ok()) {
        EXPECT_EQ(model.count(slot.value()), 0u);
        model[slot.value()] = item;
      } else {
        EXPECT_TRUE(slot.status().IsResourceExhausted());
      }
    } else if (action < 8 && !model.empty()) {  // delete random live slot
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_OK(page.DeleteItem(it->first));
      model.erase(it);
    } else if (!model.empty()) {  // overwrite with shorter payload
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      size_t new_len = rng.Uniform(it->second.size() + 1);
      Bytes item = rng.RandomBytes(new_len);
      ASSERT_OK(page.OverwriteItem(it->first, Slice(item)));
      it->second = item;
    }
    if (step % 100 == 0) page.Compact();
  }
  for (const auto& [slot, expected] : model) {
    ASSERT_OK_AND_ASSIGN(Slice item, page.GetItem(slot));
    EXPECT_EQ(item, Slice(expected)) << "slot " << slot;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageFuzz,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace pglo
