#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "not found: missing thing");
}

TEST(StatusTest, CopyAndMove) {
  Status s = Status::IOError("disk on fire");
  Status copy = s;
  EXPECT_TRUE(copy.IsIOError());
  EXPECT_TRUE(s.IsIOError());
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsIOError());
  EXPECT_EQ(moved.message(), "disk on fire");
}

TEST(StatusTest, AllCodesRoundTripNames) {
  for (StatusCode code :
       {StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kInvalidArgument, StatusCode::kIOError,
        StatusCode::kCorruption, StatusCode::kNotSupported,
        StatusCode::kPermissionDenied, StatusCode::kAborted,
        StatusCode::kOutOfRange, StatusCode::kResourceExhausted,
        StatusCode::kInternal}) {
    Status s(code, "x");
    EXPECT_EQ(s.code(), code);
    EXPECT_FALSE(StatusCodeToString(code).empty());
  }
}

Result<int> ReturnsValue() { return 42; }
Result<int> ReturnsError() { return Status::InvalidArgument("nope"); }
Result<int> UsesAssignOrReturn() {
  PGLO_ASSIGN_OR_RETURN(int v, ReturnsValue());
  return v + 1;
}
Result<int> PropagatesError() {
  PGLO_ASSIGN_OR_RETURN(int v, ReturnsError());
  return v + 1;
}

TEST(ResultTest, Value) {
  Result<int> r = ReturnsValue();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, Error) {
  Result<int> r = ReturnsError();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(UsesAssignOrReturn().value(), 43);
  EXPECT_TRUE(PropagatesError().status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyType) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(SliceTest, BasicViews) {
  Bytes b = {1, 2, 3, 4, 5};
  Slice s(b);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0], 1);
  Slice sub = s.Sub(1, 3);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub[0], 2);
  EXPECT_EQ(s.Sub(10, 3).size(), 0u);
  EXPECT_EQ(s.Sub(3, 100).size(), 2u);
}

TEST(SliceTest, EqualityAndStrings) {
  Slice a("hello");
  Slice b(std::string_view("hello"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_FALSE(a == Slice("hellx"));
  EXPECT_TRUE(Slice() == Slice(""));
}

TEST(BytesTest, FixedEncodingRoundTrip) {
  Bytes buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutLengthPrefixed(&buf, Slice("payload"));

  ByteReader reader{Slice(buf)};
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  Slice lp;
  ASSERT_TRUE(reader.GetFixed16(&v16));
  ASSERT_TRUE(reader.GetFixed32(&v32));
  ASSERT_TRUE(reader.GetFixed64(&v64));
  ASSERT_TRUE(reader.GetLengthPrefixed(&lp));
  EXPECT_EQ(v16, 0xBEEF);
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_EQ(lp.ToString(), "payload");
  EXPECT_TRUE(reader.exhausted());
}

TEST(BytesTest, ReaderRejectsTruncation) {
  Bytes buf;
  PutFixed32(&buf, 100);  // length prefix claiming 100 bytes, no payload
  ByteReader reader{Slice(buf)};
  Slice lp;
  EXPECT_FALSE(reader.GetLengthPrefixed(&lp));
  uint64_t v64;
  ByteReader reader2{Slice(buf)};
  EXPECT_FALSE(reader2.GetFixed64(&v64));
}

TEST(Crc32cTest, KnownVectors) {
  // CRC-32C of "123456789" is 0xE3069283.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c::Value(data, sizeof(data)), 0xE3069283u);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  Bytes data = Random(7).RandomBytes(1024);
  uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t split = crc32c::Extend(crc32c::Value(data.data(), 100),
                                  data.data() + 100, data.size() - 100);
  EXPECT_EQ(whole, split);
}

// Extend (the SSE4.2 path on CPUs that have it) must equal the table loop
// on every length, alignment and split.
TEST(Crc32cTest, ExtendMatchesPortable) {
  Random rnd(testing::TestSeed());
  Bytes data = rnd.RandomBytes(9000 + 8);
  auto check = [&](size_t start, size_t n) {
    const uint8_t* p = data.data() + start;
    EXPECT_EQ(crc32c::Value(p, n), crc32c::internal::ExtendPortable(0, p, n))
        << "start " << start << " length " << n;
  };
  for (size_t n = 0; n <= 64; ++n) check(0, n);
  for (size_t n : {127u, 255u, 1000u, 4095u, 4096u, 8191u, 8192u, 8193u,
                   9000u}) {
    check(0, n);
  }
  for (size_t start = 1; start < 8; ++start) {
    for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 8192u}) check(start, n);
  }
  // A non-zero init CRC, split at every point of a 64-byte buffer and at a
  // few points of a page-sized one.
  const uint32_t init = 0x1234abcdu;
  for (size_t n : {64u, 8192u}) {
    uint32_t whole = crc32c::internal::ExtendPortable(init, data.data(), n);
    for (size_t split = 0; split <= n; split += n == 64 ? 1 : 1021) {
      uint32_t head = crc32c::Extend(init, data.data(), split);
      EXPECT_EQ(crc32c::Extend(head, data.data() + split, n - split), whole)
          << "length " << n << " split " << split;
    }
  }
}

// The checksum of one fixed 8 KiB page, as the table-only implementation
// computed it: the hardware path leaves the on-disk format unchanged.
TEST(Crc32cTest, PinnedPageValue) {
  uint8_t page[8192];
  for (size_t i = 0; i < sizeof(page); ++i) {
    page[i] = static_cast<uint8_t>((i * 131 + 7) ^ (i >> 8));
  }
  EXPECT_EQ(crc32c::Value(page, sizeof(page)), 0x3ee41fe7u);
  EXPECT_EQ(crc32c::internal::ExtendPortable(0, page, sizeof(page)),
            0x3ee41fe7u);
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xFFFFFFFFu, 0x12345678u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, ZeroSeedStillWorks) {
  Random r(0);
  EXPECT_NE(r.Next(), 0u);
}

}  // namespace
}  // namespace pglo
