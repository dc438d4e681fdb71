// The shared little-endian codec: field layout, bounds-checked reads that
// raise the caller's exception type, and the running CRC-32.
#include "common/byte_codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace prc {
namespace {

struct TestError : std::runtime_error {
  explicit TestError(const std::string& what) : std::runtime_error(what) {}
};

TEST(ByteCodecTest, WriterLaysOutLittleEndianFields) {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.u8(0xab);
  out.u32(0x01020304u);
  out.u64(0x1122334455667788ull);
  out.f64(-2.0);
  out.str("hi");
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{
                       0xab,                                            //
                       0x04, 0x03, 0x02, 0x01,                          //
                       0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  //
                       0, 0, 0, 0, 0, 0, 0, 0xc0,                       //
                       2, 0, 0, 0, 'h', 'i'}));
  out.patch_u32(1, 0xdeadbeefu);
  ByteReader<TestError> in(bytes, "short");
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x1122334455667788ull);
}

TEST(ByteCodecTest, ReaderRoundTripsEveryFieldBitForBit) {
  const double nan_payload = std::bit_cast<double>(0x7ff8000000000123ull);
  const std::string with_nul("a\0\xff", 3);
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.u64(std::numeric_limits<std::uint64_t>::max());
  out.f64(-0.0);
  out.f64(std::numeric_limits<double>::denorm_min());
  out.f64(nan_payload);
  out.str(with_nul);
  out.str("");

  ByteReader<TestError> in(bytes, "short");
  EXPECT_EQ(in.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(std::signbit(in.f64()));
  EXPECT_EQ(in.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in.f64()), 0x7ff8000000000123ull);
  EXPECT_EQ(in.str(), with_nul);
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.exhausted());
}

TEST(ByteCodecTest, ShortReadThrowsTheCallersErrorAndConsumesNothing) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  ByteReader<TestError> in(bytes, "three bytes only");
  try {
    in.u32();
    FAIL() << "a 4-byte read of 3 bytes must throw";
  } catch (const TestError& e) {
    EXPECT_STREQ(e.what(), "three bytes only");
  }
  EXPECT_EQ(in.remaining(), 3u);
  EXPECT_EQ(in.bytes(2).size(), 2u);
  EXPECT_THROW(in.bytes(2), TestError);
  EXPECT_EQ(in.u8(), 3u);
  EXPECT_THROW(in.u8(), TestError);
  // A string whose length prefix claims more than the span holds.
  const std::vector<std::uint8_t> torn{5, 0, 0, 0, 'a', 'b'};
  EXPECT_THROW(ByteReader<std::invalid_argument>(torn, "torn").str(),
               std::invalid_argument);
}

TEST(ByteCodecTest, Crc32KnownVector) {
  // The canonical "123456789" check value for CRC-32/IEEE.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xcbf43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(ByteCodecTest, Crc32RunningValueChainsLikeOneShot) {
  const std::string text = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(text.data());
  for (std::size_t split = 0; split <= text.size(); ++split) {
    EXPECT_EQ(crc32(data + split, text.size() - split, crc32(data, split)),
              0xcbf43926u)
        << split;
  }
  EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

}  // namespace
}  // namespace prc
