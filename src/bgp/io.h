// Low-level binary I/O helpers for the BGA archive format: little-endian
// fixed integers, LEB128 varints, zigzag, and CRC-32 (IEEE 802.3).
//
// ByteWriter appends to an in-memory buffer; ByteReader consumes a span.
// Reader methods throw ArchiveError on truncation or malformed varints, so
// the archive layer never reads past its input.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bgpatoms::bgp {

class ArchiveError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320: entry
/// [k][b] is the CRC of byte b followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
    }
  }
  return t;
}
inline constexpr auto kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// Incrementally computed CRC-32 (reflected polynomial 0xEDB88320).
///
/// Slice-by-8: eight tables built at compile time fold eight input bytes
/// per step. The 32-bit word is composed from bytes, so the result does
/// not depend on the host's byte order.
class Crc32 {
 public:
  void update(const void* data, std::size_t len) {
    const auto& t = detail::kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = ~value_;
    for (; len >= 8; p += 8, len -= 8) {
      const std::uint32_t w =
          c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
      c = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][w >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; len > 0; ++p, --len) c = (c >> 8) ^ t[0][(c ^ *p) & 0xff];
    value_ = ~c;
  }
  std::uint32_t value() const { return value_; }

 private:
  std::uint32_t value_ = 0;
};

inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data.data(), data.size());
  return c.value();
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  void string(std::string_view s) {
    varint(s.size());
    bytes(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1);
      const std::uint8_t b = data_[pos_++];
      // The 10th byte contributes only bit 63: any higher payload bit would
      // silently wrap a value >= 2^64 to a small one.
      if (shift == 63 && (b & 0x7e) != 0) throw ArchiveError("varint overflow");
      v |= std::uint64_t{b & 0x7fu} << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw ArchiveError("varint too long");
  }

  std::int64_t svarint() {
    const std::uint64_t z = varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string string() {
    const std::uint64_t len = varint();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  void bytes(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  // `pos_ + n > size` would wrap for attacker-controlled n near 2^64 and
  // let the check pass; pos_ <= size() is an invariant, so subtract instead.
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) throw ArchiveError("truncated archive");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace bgpatoms::bgp
