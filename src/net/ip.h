// IP address value types.
//
// A single 128-bit storage covers both families; IPv4 addresses live in the
// low 32 bits with family tracked separately. All operations are constexpr-
// friendly value semantics; parsing/formatting live in ip.cpp.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bgpatoms::net {

enum class Family : std::uint8_t { kIPv4 = 4, kIPv6 = 6 };

/// Returns the bit width of addresses in `f` (32 or 128).
constexpr int address_bits(Family f) { return f == Family::kIPv4 ? 32 : 128; }

/// An IP address of either family.
///
/// Representation: the address as a 128-bit big-endian-ordered integer held
/// in two 64-bit words (hi = most significant). IPv4 addresses are stored in
/// the low 32 bits of `lo` with `hi == 0`.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr IpAddress(Family family, std::uint64_t hi, std::uint64_t lo)
      : hi_(hi), lo_(lo), family_(family) {}

  /// Builds an IPv4 address from a host-order 32-bit value.
  static constexpr IpAddress v4(std::uint32_t addr) {
    return IpAddress(Family::kIPv4, 0, addr);
  }

  /// Builds an IPv6 address from two host-order 64-bit halves.
  static constexpr IpAddress v6(std::uint64_t hi, std::uint64_t lo) {
    return IpAddress(Family::kIPv6, hi, lo);
  }

  /// Parses dotted-quad or RFC 4291 textual form. Returns nullopt on error.
  static std::optional<IpAddress> parse(std::string_view text);

  constexpr Family family() const { return family_; }
  constexpr bool is_v4() const { return family_ == Family::kIPv4; }
  constexpr std::uint64_t hi() const { return hi_; }
  constexpr std::uint64_t lo() const { return lo_; }
  constexpr std::uint32_t v4_value() const {
    return static_cast<std::uint32_t>(lo_);
  }

  /// Value of bit `i` counted from the most significant end of the address
  /// (bit 0 is the top bit). `i` must be < address_bits(family()).
  constexpr bool bit(int i) const {
    const int width = address_bits(family_);
    const int pos = width - 1 - i;  // position from LSB within the family
    if (family_ == Family::kIPv4) return (lo_ >> pos) & 1;
    return pos >= 64 ? (hi_ >> (pos - 64)) & 1 : (lo_ >> pos) & 1;
  }

  /// Returns a copy with all bits below the top `len` bits cleared.
  constexpr IpAddress masked(int len) const {
    const int width = address_bits(family_);
    if (len <= 0) return IpAddress(family_, 0, 0);
    if (len >= width) return *this;
    if (family_ == Family::kIPv4) {
      const std::uint64_t mask = ~0ULL << (32 - len) & 0xffffffffULL;
      return IpAddress(family_, 0, lo_ & mask);
    }
    if (len <= 64) {
      const std::uint64_t mask = ~0ULL << (64 - len);
      return IpAddress(family_, hi_ & mask, 0);
    }
    const std::uint64_t mask = ~0ULL << (128 - len);
    return IpAddress(family_, hi_, lo_ & mask);
  }

  /// Appends the textual form: dotted quad, or lowercase hex groups with
  /// the first longest run of two or more zero groups compressed to "::".
  void append_to(std::string& out) const;
  std::string to_string() const;

  friend constexpr auto operator<=>(const IpAddress&,
                                    const IpAddress&) = default;

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
  Family family_ = Family::kIPv4;
};

}  // namespace bgpatoms::net
