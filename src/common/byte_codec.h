// Little-endian byte codec shared by every binary format in the project:
// the sampling protocol frames (iot/codec), the market write-ahead log
// (market/wal) and base-station checkpoints.
//
// ByteWriter appends fixed-width integers, IEEE-754 doubles (by bit
// pattern, so -0.0, subnormals and NaN payloads survive) and u32-length-
// prefixed strings to a byte vector.  ByteReader walks a span of bytes the
// same way; a read past the end throws `Error(short_read_message)`, so
// each format keeps the exception type its callers already catch.  crc32
// is the IEEE 802.3 CRC the frames and log records carry.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace prc {

namespace detail {

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}();

}  // namespace detail

/// CRC-32 (IEEE 802.3 polynomial) of `size` bytes at `data`.  `crc` is a
/// running value in the zlib convention: crc32(b, nb, crc32(a, na)) is the
/// CRC of a followed by b, and the default 0 starts a fresh checksum.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                           std::uint32_t crc = 0) {
  crc = ~crc;
  for (const std::uint8_t byte : std::span(data, size)) {
    crc = detail::kCrc32Table[(crc ^ byte) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

/// Appends little-endian fields to a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t value) { out_.push_back(value); }
  void u32(std::uint32_t value) { put(value); }
  void u64(std::uint64_t value) { put(value); }
  void f64(double value) { put(std::bit_cast<std::uint64_t>(value)); }

  void bytes(std::span<const std::uint8_t> value) {
    out_.insert(out_.end(), value.begin(), value.end());
  }

  /// u32 byte length, then the raw bytes (no terminator, no encoding
  /// check: ids are opaque byte strings).
  void str(std::string_view value) {
    u32(static_cast<std::uint32_t>(value.size()));
    out_.insert(out_.end(), value.begin(), value.end());
  }

  /// Overwrites the u32 at `offset`: a length or CRC field reserved
  /// before the bytes it describes were appended.
  void patch_u32(std::size_t offset, std::uint32_t value) {
    PRC_CHECK(offset + sizeof(value) <= out_.size())
        << "patch_u32 out of bounds: offset " << offset << " in "
        << out_.size() << " bytes";
    for (std::size_t i = 0; i < sizeof(value); ++i) {
      out_[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }

 private:
  template <typename T>
  void put(T value) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader over a byte span.  Every read that
/// would run past the end throws `Error(short_read_message)`; a fixed-width
/// read that throws consumes nothing.
template <typename Error>
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes,
             const char* short_read_message)
      : bytes_(bytes), short_read_message_(short_read_message) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(get<std::uint64_t>()); }

  /// The next `count` bytes, in place (no copy).
  std::span<const std::uint8_t> bytes(std::size_t count) {
    if (remaining() < count) throw Error(short_read_message_);
    const auto taken = bytes_.subspan(position_, count);
    position_ += count;
    return taken;
  }

  /// A u32-length-prefixed string written by ByteWriter::str.
  std::string str() {
    const auto length = u32();
    const auto taken = bytes(length);
    return std::string(taken.begin(), taken.end());
  }

  std::size_t remaining() const noexcept {
    return bytes_.size() - position_;
  }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  T get() {
    T value = 0;
    unsigned shift = 0;
    for (const std::uint8_t byte : bytes(sizeof(T))) {
      value |= static_cast<T>(static_cast<T>(byte) << shift);
      shift += 8;
    }
    return value;
  }

  std::span<const std::uint8_t> bytes_;
  const char* short_read_message_;
  std::size_t position_ = 0;
};

}  // namespace prc
